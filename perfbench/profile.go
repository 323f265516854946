package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profiler takes a CPU profile and a heap-allocation delta around each
// traced run and attributes both per layer.
//
// CPU: a sample under a GC frame counts as runtime.gc, else one under
// runtime.mallocgc as runtime.alloc, else it goes to its innermost frame of
// a repro/internal package or of the benchmark itself (bench), so a map
// lookup or fmt call made by obs counts as obs; a sample with neither
// (scheduler, profiler) counts as other.
//
// Heap: sampled allocated objects, scaled to estimated counts, go to the
// innermost repro/internal frame of their allocation stack.
type profiler struct {
	buf    bytes.Buffer
	raw    [][]byte // gzipped CPU profiles, one per traced run
	cpu    map[string]float64
	cpuN   float64
	heap   map[string]float64
	heapN  float64
	before map[[32]uintptr]runtime.MemProfileRecord
}

func newProfiler() *profiler {
	return &profiler{cpu: map[string]float64{}, heap: map[string]float64{}}
}

func (p *profiler) start() error {
	p.before = memProfile()
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	raw := append([]byte(nil), p.buf.Bytes()...)
	p.raw = append(p.raw, raw)
	if err := p.addCPU(raw); err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	p.addHeap(p.before, memProfile())
	return nil
}

// memProfile returns the cumulative allocation records by stack, after two
// collections so that recent allocations are published.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		out[r.Stack0] = r
	}
	return out
}

func (p *profiler) addHeap(before, after map[[32]uintptr]runtime.MemProfileRecord) {
	rate := float64(runtime.MemProfileRate)
	for key, r := range after {
		objs := r.AllocObjects - before[key].AllocObjects
		bytes := r.AllocBytes - before[key].AllocBytes
		if objs <= 0 {
			continue
		}
		// Undo the sampling: an object of size s is sampled with
		// probability 1-exp(-s/rate).
		est := float64(objs)
		if size := float64(bytes) / float64(objs); rate > 0 && size > 0 {
			est /= 1 - math.Exp(-size/rate)
		}
		layer := "other"
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if l, ok := layerOf(f.Function); ok {
				layer = l
				break
			}
			if !more {
				break
			}
		}
		p.heap[layer] += est
		p.heapN += est
	}
}

// layerOf maps a function name to its repro/internal layer: the last
// element of the package path ("repro/internal/apps/nbia.Run" -> "nbia").
func layerOf(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	pkg := fn[len(prefix):]
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	return pkg[slash+1:], true
}

// gcFrame reports whether a runtime function does garbage-collector work:
// marking, sweeping, scavenging, assists and write barriers.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBuf"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuLayer classifies one CPU sample by its stack, leaf first.
func cpuLayer(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "runtime.alloc"
		}
	}
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "other"
}

// addCPU decodes a gzipped pprof CPU profile and attributes its samples.
func (p *profiler) addCPU(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	prof, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range prof.locLines[id] {
				stack = append(stack, prof.funcName(fid))
			}
		}
		if len(s.values) == 0 {
			continue
		}
		n := float64(s.values[0])
		p.cpu[cpuLayer(stack)] += n
		p.cpuN += n
	}
	return nil
}

// The subset of the pprof profile.proto that attribution needs.
type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locLines map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs    map[uint64]int64    // function ID -> name string index
	strings  []string
}

func (pr *pbProfile) funcName(id uint64) string {
	if i, ok := pr.funcs[id]; ok && i >= 0 && int(i) < len(pr.strings) {
		return pr.strings[i]
	}
	return ""
}

func decodeProfile(data []byte) (*pbProfile, error) {
	pr := &pbProfile{locLines: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			pr.samples = append(pr.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			pr.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			pr.funcs[id] = name
			return err
		case 6: // string table
			pr.strings = append(pr.strings, string(b))
		}
		return nil
	})
	return pr, err
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (b != nil).
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
