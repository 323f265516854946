package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// profileLayers are the rows of the CPU and heap attribution: the
// repro/internal packages the workloads run, by last path element.
var profileLayers = []string{"sim", "hw", "core", "policy", "estimator", "xfer", "obs", "span", "serve", "arrival", "nbia", "task"}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to the workload reads 0.
var perLayer = func() [][2]string {
	var m [][2]string
	for _, l := range profileLayers {
		m = append(m, [2]string{l + ".cpu_share", "ratio"}, [2]string{l + ".alloc_share", "ratio"})
	}
	return append(m, [][2]string{
		{"runtime.alloc_cpu_share", "ratio"}, {"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_cycles", "count"},
		{"bench.cpu_share", "ratio"}, {"other.cpu_share", "ratio"}, {"cpu_share_covered", "ratio"},
		{"trace_overhead_pct", "%"},
		{"sim.ns_per_event", "ns"}, {"sim.allocs_per_event", "allocs"}, {"sim.chan_round_ns", "ns"},
		{"hw.send_ns", "ns"}, {"hw.copy_ns", "ns"}, {"hw.send_allocs", "allocs"},
		{"hw.gpu_busy_frac", "ratio"}, {"hw.cpu_busy_frac", "ratio"}, {"hw.net_mb", "MB"}, {"hw.pcie_mb", "MB"},
		{"core.fetch_ns", "ns"}, {"core.fetch_allocs", "allocs"},
		{"core.demand_issued", "count"}, {"core.demand_empty", "count"}, {"core.demand_hit_ratio", "ratio"},
		{"core.sends", "count"}, {"core.delivers", "count"}, {"core.processed_cpu", "count"}, {"core.processed_gpu", "count"},
		{"core.inqueue_wait_ms_p50", "virt_ms"}, {"core.inqueue_wait_ms_p99", "virt_ms"},
		{"policy.pop_ranked_ns", "ns"}, {"policy.pop_for_ns", "ns"}, {"policy.queue_depth", "count"},
		{"policy.dqaa_target_changes", "count"}, {"policy.gpu_hires_share", "ratio"},
		{"estimator.speedup_ns", "ns"}, {"estimator.speedup_allocs", "allocs"}, {"estimator.profile_build_ms", "ms"},
		{"xfer.h2d_spans", "count"}, {"xfer.kernel_spans", "count"}, {"xfer.d2h_spans", "count"}, {"xfer.run_batch_ns", "ns"},
		{"obs.record_ns", "ns"}, {"obs.sketch_insert_ns", "ns"}, {"obs.window_quantile_ns", "ns"},
		{"span.record_ns", "ns"}, {"span.build_request_ms", "ms"},
		{"serve.step_ms_p50", "ms"}, {"serve.step_ms_p99", "ms"}, {"serve.scrape_ms_p50", "ms"},
		{"serve.advance_ms_p50", "ms"}, {"serve.frame_ms_p50", "ms"},
		{"serve.offered", "count"}, {"serve.shed", "count"}, {"serve.served", "count"}, {"serve.max_queue_depth", "count"},
		{"serve.virt_p99_ms", "virt_ms"}, {"serve.slo_miss_frac", "ratio"},
		{"arrival.times_ms", "ms"},
	}...)
}()

// finishTrace runs the ladder, reports the profile shares, fills the
// metrics that do not apply with 0, and writes the spans and profiles.
func (b *bench) finishTrace(p *profiler, depth float64) error {
	b.spans.on = true
	t0 := time.Now()
	if err := b.ladder(depth); err != nil {
		return err
	}
	b.spans.add("ladder", 0, t0, time.Now())
	share := func(m map[string]float64, n float64, key string) float64 {
		if n == 0 {
			return 0
		}
		return m[key] / n
	}
	// covered is the share of samples attributed to a named row: every
	// layer, the runtime's alloc and GC, and the benchmark itself.
	covered := 0.0
	for _, l := range profileLayers {
		b.set(l+".cpu_share", "ratio", share(p.cpu, p.cpuN, l))
		b.set(l+".alloc_share", "ratio", share(p.heap, p.heapN, l))
		covered += share(p.cpu, p.cpuN, l)
	}
	for _, row := range [][2]string{{"runtime.alloc_cpu_share", "runtime.alloc"}, {"runtime.gc_cpu_share", "runtime.gc"}, {"bench.cpu_share", "bench"}} {
		v := share(p.cpu, p.cpuN, row[1])
		b.set(row[0], "ratio", v)
		covered += v
	}
	b.set("other.cpu_share", "ratio", share(p.cpu, p.cpuN, "other"))
	b.set("cpu_share_covered", "ratio", covered)
	for _, m := range perLayer {
		if _, ok := b.metrics[m[0]]; !ok {
			b.set(m[0], m[1], 0)
		}
	}
	for name := range b.metrics {
		if !isPerLayer(name) {
			return fmt.Errorf("metric %s is not in the per-layer list", name)
		}
	}

	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := b.spans.write(base + "-spans.json"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	stale, _ := filepath.Glob(base + "-cpu*.pprof") // a pattern error is impossible here
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return fmt.Errorf("remove stale profile: %w", err)
		}
	}
	for i, raw := range p.raw {
		if err := os.WriteFile(fmt.Sprintf("%s-cpu%d.pprof", base, i), raw, 0o644); err != nil {
			return fmt.Errorf("write CPU profile: %w", err)
		}
	}
	data, err := json.MarshalIndent(map[string]any{
		"cpu_samples": p.cpuN, "cpu_by_layer": p.cpu,
		"heap_objects_est": p.heapN, "heap_by_layer": p.heap,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("encode layer shares: %w", err)
	}
	return os.WriteFile(base+"-layers.json", data, 0o644)
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m[0] == name {
			return true
		}
	}
	return false
}
