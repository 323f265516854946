// Command perfbench is the repository's benchmark. One invocation runs one
// workload serially in one process and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics.
//
//	bash perfbench/run.sh --workload scale_ddwrr --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	scale_ddwrr  nbia.Run, 14-node heterogeneous cluster, 26,742 tiles, DDWRR(32)
//	scale_odds   the same cluster at 267,420 tiles under ODDS
//	serve_live   the serve engine (three pipelines, sink on) driven in 10 ms ticks
//
// With --trace 0 the benchmark repeats the workload until --seconds have
// passed and reports the end-to-end metrics, medians over the repetitions.
// With --trace 1 it alternates untraced and traced repetitions for
// --seconds, then runs the layer ladder, and reports the per-layer metrics:
// hook-bus counts, CPU and heap profile shares per layer, the ladder's
// ns/op, and the tracing overhead. Spans of the benchmark's own calls and
// the CPU profiles are written under --out when the run ends.
//
// Every input is derived from --seed; the program under test only receives
// the generated kernel seed, profile seed, tile region and arrival instants.
// Every repetition checks its outputs; a failed check counts as a failed
// operation and makes correct false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Seeds: defaultSeed is used when --seed is absent; heldOutSeed is never
// used while tuning and is reserved for confirming a later claim.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// processStart approximates the process start: the first measured call's
// set-up is timed from here.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string

	attempted, failed int
	metrics           map[string]metric
	spans             *spanLog
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// op records one repetition and its check outcome.
func (b *bench) op(wall time.Duration, err error) {
	b.attempted++
	fmt.Fprintf(os.Stderr, "perfbench: op %d: %.4f s\n", b.attempted, wall.Seconds())
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %v\n", b.workload, b.seed, err)
	}
}

// measuring reports whether another repetition starts: always the first,
// then until the measuring window closes.
func (b *bench) measuring(start time.Time, done int) bool {
	return done == 0 || time.Since(start) < b.seconds
}

var workloads = map[string]func(*bench) error{
	"scale_ddwrr": func(b *bench) error { return runScaleWorkload(b, scaleSpecs["scale_ddwrr"]) },
	"scale_odds":  func(b *bench) error { return runScaleWorkload(b, scaleSpecs["scale_odds"]) },
	"serve_live":  runServeWorkload,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "scale_ddwrr | scale_odds | serve_live")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 20, "measuring window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and profiles of traced runs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, out: *out, metrics: map[string]metric{},
		spans: &spanLog{},
	}
	if b.trace {
		// Sample the heap profile finely enough to attribute objects per
		// layer; set before the workload allocates.
		runtime.MemProfileRate = 64 << 10
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v window, trace %v, GOMAXPROCS %d\n",
		b.workload, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0))
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation ran")
		os.Exit(1)
	}
	line, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// memWatch samples, every 2 ms while a run is in progress, the memory the
// Go runtime holds from the OS (mapped and not released), and keeps the
// peak. Runs start from a heap returned to the OS, so the peak is the run's.
type memWatch struct {
	stop chan struct{}
	done chan float64
}

func watchMem() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		held := func() float64 {
			metrics.Read(s)
			return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / 1e6
		}
		peak := held()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				w.done <- max(peak, held())
				return
			case <-tick.C:
				peak = max(peak, held())
			}
		}
	}()
	return w
}

// peak stops the sampler and returns the peak in MB.
func (w *memWatch) peak() float64 {
	close(w.stop)
	return <-w.done
}

// allocDelta is the heap allocated between two MemStats readings.
type allocDelta struct {
	mb, objectsM float64
	gcs          uint32
	peakMB       float64 // peak memory held from the OS during the run
}

func allocSince(m0 *runtime.MemStats) allocDelta {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return allocDelta{
		mb:       float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		objectsM: float64(m1.Mallocs-m0.Mallocs) / 1e6,
		gcs:      m1.NumGC - m0.NumGC,
	}
}

// setCommon reports the end-to-end metrics every workload shares.
func (b *bench) setCommon(setup, wall []float64, allocs []allocDelta, lineages, virt float64) {
	mb := make([]float64, len(allocs))
	obj := make([]float64, len(allocs))
	peak := make([]float64, len(allocs))
	for i, a := range allocs {
		mb[i], obj[i], peak[i] = a.mb, a.objectsM, a.peakMB
	}
	w := median(wall)
	b.set("setup_s", "s", median(setup))
	b.set("wall_s", "s", w)
	b.set("lineages_per_s", "1/s", lineages/w)
	b.set("virt_per_wall", "virt_s/s", virt/w)
	b.set("alloc_mb", "MB", median(mb))
	b.set("alloc_objects_m", "Mobjects", median(obj))
	b.set("peak_mem_mb", "MB", median(peak))
	b.set("virt_makespan_s", "virt_s", virt)
}
