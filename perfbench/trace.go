package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spanRec is one span of the benchmark's own calls into the program.
// Times are nanoseconds since the process started; Parent 0 is a root.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory while on; it is written out when the run
// ends. While off, recording costs one branch.
type spanLog struct {
	on   bool
	recs []spanRec
}

// add records a span and returns its ID, or 0 while off. A zero end leaves
// the span open until end is called.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if !l.on {
		return 0
	}
	r := spanRec{ID: len(l.recs) + 1, Parent: parent, Name: name, StartNS: start.Sub(processStart).Nanoseconds()}
	if !end.IsZero() {
		r.EndNS = end.Sub(processStart).Nanoseconds()
	}
	l.recs = append(l.recs, r)
	return r.ID
}

func (l *spanLog) end(id int) {
	if id != 0 {
		l.recs[id-1].EndNS = time.Since(processStart).Nanoseconds()
	}
}

func (l *spanLog) durationsMS(name string) []float64 {
	var out []float64
	for _, r := range l.recs {
		if r.Name == name {
			out = append(out, float64(r.EndNS-r.StartNS)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, r := range l.recs {
		self[r.Name] += float64(r.EndNS-r.StartNS) / 1e9
		if r.Parent != 0 {
			self[l.recs[r.Parent-1].Name] -= float64(r.EndNS-r.StartNS) / 1e9
		}
	}
	return self
}

func (l *spanLog) write(path string) error {
	doc := struct {
		Spans  []spanRec          `json:"spans"`
		SelfS  map[string]float64 `json:"self_s"`
		Unit   string             `json:"unit"`
		Origin string             `json:"origin"`
	}{l.recs, l.selfTimes(), "ns", "process start"}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile is the nearest-rank q-quantile of vs (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value, averaging the two middle ones for an even
// count.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promSamples []promSample

// parseProm reads the sample lines of a Prometheus text payload.
func parseProm(data []byte) promSamples {
	var out promSamples
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// sum adds the samples of one family, optionally only those whose label
// key has the value val.
func (ps promSamples) sum(name, key, val string) float64 {
	var t float64
	for _, s := range ps {
		if s.name == name && (key == "" || s.labels[key] == val) {
			t += s.value
		}
	}
	return t
}
