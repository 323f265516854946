// Command nbia runs a single configuration of the Neuroblastoma Image
// Analysis System on the simulated cluster and reports makespan, speedup
// over one CPU core, and the per-device work profile.
//
// Example:
//
//	nbia -nodes 4 -hetero -tiles 26742 -rate 0.08 -policy odds
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps/nbia"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 1, "number of cluster nodes")
		hetero  = flag.Bool("hetero", false, "make half the nodes CPU-only")
		tiles   = flag.Int("tiles", 26742, "number of image tiles")
		rate    = flag.Float64("rate", 0.08, "tile recalculation rate (0..1)")
		polName = flag.String("policy", "odds", "stream policy: ddfcfs, ddwrr, odds")
		reqSize = flag.Int("request-size", 32, "static streamRequestsSize (ddfcfs/ddwrr)")
		gpuOnly = flag.Bool("gpu-only", false, "no CPU workers")
		sync    = flag.Bool("sync-copy", false, "synchronous CPU/GPU copies")
		seed    = flag.Int64("seed", 1, "simulation seed")
		gantt   = flag.Bool("trace", false, "print a device-occupancy Gantt chart")
		csvOut  = flag.String("trace-csv", "", "write per-tile processing records to this CSV file")
	)
	flag.Parse()

	var pol policy.StreamPolicy
	switch strings.ToLower(*polName) {
	case "ddfcfs":
		pol = policy.DDFCFS(*reqSize)
	case "ddwrr":
		pol = policy.DDWRR(*reqSize)
	case "odds":
		pol = policy.ODDS()
	default:
		fmt.Fprintf(os.Stderr, "nbia: unknown policy %q\n", *polName)
		os.Exit(1)
	}

	k := sim.NewKernel(*seed)
	var cl *hw.Cluster
	if *hetero {
		cl = nbia.HeteroCluster(k, *nodes)
	} else {
		cl = nbia.HomoCluster(k, *nodes)
	}
	cfg := nbia.Config{
		Cluster:     cl,
		Tiles:       *tiles,
		RecalcRate:  *rate,
		Policy:      pol,
		UseGPU:      true,
		CPUWorkers:  -1,
		AsyncCopy:   !*sync,
		Weights:     nbia.WeightEstimator,
		Seed:        *seed,
		RecordProcs: true,
	}
	if *gpuOnly {
		cfg.CPUWorkers = 0
		if *hetero {
			for i := 0; i < (*nodes+1)/2; i++ {
				cfg.Workers = append(cfg.Workers, i)
			}
		}
	}
	res, err := nbia.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbia:", err)
		os.Exit(1)
	}

	count := map[hw.Kind]map[int]int{hw.CPU: {}, hw.GPU: {}}
	for _, r := range res.Records {
		count[r.Kind][r.Payload.(nbia.TileRef).Level]++
	}
	fmt.Printf("cluster:          %d node(s)%s\n", *nodes, map[bool]string{true: " (heterogeneous)", false: ""}[*hetero])
	fmt.Printf("policy:           %s\n", pol)
	fmt.Printf("tiles:            %d (+%d recalculated)\n", *tiles, res.Completed-int64(*tiles))
	fmt.Printf("makespan:         %.3f s (virtual)\n", float64(res.Makespan))
	fmt.Printf("1-core reference: %.1f s\n", float64(res.CPUOnly))
	fmt.Printf("speedup:          %.1fx\n", res.Speedup)
	fmt.Printf("GPU profile:      %d low-res, %d high-res tiles\n", count[hw.GPU][0], count[hw.GPU][1])
	fmt.Printf("CPU profile:      %d low-res, %d high-res tiles\n", count[hw.CPU][0], count[hw.CPU][1])

	if *gantt {
		fmt.Printf("\ndevice occupancy over the run:\n%s", trace.Gantt(cl.Devices(), res.Makespan, 72))
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbia:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteProcsCSV(f, res.Records); err != nil {
			fmt.Fprintln(os.Stderr, "nbia:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d processing records to %s\n", len(res.Records), *csvOut)
	}
}
