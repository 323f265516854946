// Package spec reads the `kind:key=value,...;...` specs behind the -faults
// and -arrivals flags: the ';'-separated item list, each item's key=value
// pairs, and typed values. Kind dispatch and per-kind validation stay with
// each spec's parser. Malformed input returns an error, never panics.
package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Items splits s at ';', trims each item, skips empty ones and decodes the
// rest with parse. An error names the item as `<what> "<item>": <cause>`.
func Items[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, raw := range strings.Split(s, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", what, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// KV holds one item's key=value pairs. The typed accessors consume the
// entries they read, so that Unknown can flag the keys no parser asked for.
type KV map[string]string

// ParseKV decodes a ','-separated list of key=value entries.
func ParseKV(s string) (KV, error) {
	kv := make(KV)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("empty key=value entry")
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not key=value", item)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

// Require reports the first of keys that is missing.
func (kv KV) Require(keys ...string) error {
	for _, k := range keys {
		if _, ok := kv[k]; !ok {
			return fmt.Errorf("missing required key %q", k)
		}
	}
	return nil
}

// Int consumes key as an integer.
func (kv KV) Int(key string) (int, error) {
	v, err := strconv.Atoi(kv[key])
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", key, kv[key])
	}
	delete(kv, key)
	return v, nil
}

// Float consumes key as a finite number.
func (kv KV) Float(key string) (float64, error) {
	v, err := strconv.ParseFloat(kv[key], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s: %q is not a finite number", key, kv[key])
	}
	delete(kv, key)
	return v, nil
}

// Time consumes key as a duration (see ParseTime).
func (kv KV) Time(key string) (sim.Time, error) {
	v, err := ParseTime(kv[key])
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	delete(kv, key)
	return v, nil
}

// Unknown returns the smallest key left unconsumed, if any: the smallest,
// not the first found, because map iteration order would make the error
// message (and anything derived from it) nondeterministic when several
// unknown keys are present.
func (kv KV) Unknown() (string, bool) {
	first, ok := "", false
	for k := range kv {
		if !ok || k < first {
			first, ok = k, true
		}
	}
	return first, ok
}

// ParseTime parses a duration in seconds with an optional s/ms/us suffix
// ("0.5", "500ms").
func ParseTime(raw string) (sim.Time, error) {
	mult := sim.Second
	num := raw
	switch {
	case strings.HasSuffix(raw, "us"):
		mult, num = sim.Microsecond, strings.TrimSuffix(raw, "us")
	case strings.HasSuffix(raw, "ms"):
		mult, num = sim.Millisecond, strings.TrimSuffix(raw, "ms")
	case strings.HasSuffix(raw, "s"):
		num = strings.TrimSuffix(raw, "s")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a duration", raw)
	}
	return sim.Time(v) * mult, nil
}
