package arrival

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Parse decodes a -arrivals spec into a Schedule. The syntax is a
// semicolon-separated list of processes, each `kind:key=value,...`:
//
//	poisson:rate=R,n=N[,start=T]                 N Poisson arrivals at R/s
//	burst:rate=R,n=N,peak=P,period=D[,start=T]   diurnal Poisson: the rate
//	                                             swings between R and R*P
//	                                             with period D
//	uniform:rate=R,n=N[,start=T]                 N arrivals exactly 1/R apart
//	trace:at=T1/T2/T3                            explicit instants, ascending
//
// Rates are requests per second; times are seconds, with optional s/ms/us
// suffixes ("0.5", "500ms"). Whitespace around processes is ignored; empty
// processes are skipped. Malformed input returns an error, never panics.
func Parse(s string) (*Schedule, error) {
	procs, err := spec.Items(s, "arrival: process", parseProc)
	if err != nil {
		return nil, err
	}
	return &Schedule{Procs: procs}, nil
}

func parseProc(part string) (Proc, error) {
	head, rest, ok := strings.Cut(part, ":")
	if !ok {
		return Proc{}, fmt.Errorf("missing ':' after process kind")
	}
	var kind Kind
	switch strings.TrimSpace(head) {
	case "poisson":
		kind = Poisson
	case "burst":
		kind = Burst
	case "trace":
		kind = Trace
	case "uniform":
		kind = Uniform
	default:
		return Proc{}, fmt.Errorf("unknown arrival kind %q", strings.TrimSpace(head))
	}
	kv, err := spec.ParseKV(rest)
	if err != nil {
		return Proc{}, err
	}
	p := Proc{Kind: kind}
	switch kind {
	case Poisson, Uniform:
		if err := parseRated(kv, &p); err != nil {
			return Proc{}, err
		}
	case Burst:
		if err := kv.Require("peak", "period"); err != nil {
			return Proc{}, err
		}
		if err := parseRated(kv, &p); err != nil {
			return Proc{}, err
		}
		if p.Peak, err = kv.Float("peak"); err != nil {
			return Proc{}, err
		}
		if p.Period, err = kv.Time("period"); err != nil {
			return Proc{}, err
		}
		if p.Peak < 1 || p.Peak > 1000 {
			return Proc{}, fmt.Errorf("peak must be in [1, 1000]")
		}
		if p.Period <= 0 {
			return Proc{}, fmt.Errorf("period must be > 0")
		}
	case Trace:
		if err := kv.Require("at"); err != nil {
			return Proc{}, err
		}
		if p.At, err = timeList(kv, "at"); err != nil {
			return Proc{}, err
		}
	}
	if k, ok := kv.Unknown(); ok {
		return Proc{}, fmt.Errorf("unknown key %q for %s arrivals", k, kind)
	}
	return p, nil
}

// parseRated decodes the rate/n/start triple common to every generated
// (non-trace) process.
func parseRated(kv spec.KV, p *Proc) error {
	if err := kv.Require("rate", "n"); err != nil {
		return err
	}
	var err error
	if p.Rate, err = kv.Float("rate"); err != nil {
		return err
	}
	if p.N, err = kv.Int("n"); err != nil {
		return err
	}
	if _, ok := kv["start"]; ok {
		if p.Start, err = kv.Time("start"); err != nil {
			return err
		}
	}
	if p.Rate <= 0 || p.Rate > 1e9 {
		return fmt.Errorf("rate must be in (0, 1e9] requests/s")
	}
	if p.N < 1 || p.N > maxCount {
		return fmt.Errorf("n must be in [1, %d]", maxCount)
	}
	if p.Start < 0 {
		return fmt.Errorf("start must be >= 0")
	}
	return nil
}

// timeList parses a '/'-separated ascending list of instants.
func timeList(kv spec.KV, key string) ([]sim.Time, error) {
	items := strings.Split(kv[key], "/")
	if len(items) > maxCount {
		return nil, fmt.Errorf("%s: more than %d instants", key, maxCount)
	}
	out := make([]sim.Time, 0, len(items))
	for _, item := range items {
		v, err := spec.ParseTime(strings.TrimSpace(item))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("%s: instants must be >= 0", key)
		}
		if len(out) > 0 && v < out[len(out)-1] {
			return nil, fmt.Errorf("%s: instants must be non-decreasing", key)
		}
		out = append(out, v)
	}
	delete(kv, key)
	return out, nil
}
