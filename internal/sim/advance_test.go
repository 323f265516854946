package sim_test

// The AdvanceTo contract: driving a kernel in slices of virtual time
// replays exactly the execution a single Run would, whatever the slice
// horizons — a horizon equal to the current instant, one below it, one
// landing on an instant with a burst of same-instant wakeups queued, one
// between instants — and processes spawned between slices (as the live
// serve engine's Inject does) join that execution at the instant the
// previous slice ended, identically however finely the time up to that
// point was sliced.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Slice-horizon sentinels for a plan entry.
const (
	atNow    = -1 // AdvanceTo(k.Now())
	belowNow = -2 // AdvanceTo just below k.Now(): must dispatch nothing
)

// slice is one AdvanceTo call of a plan, optionally followed by spawning
// one script between slices.
type slice struct {
	h      float64 // horizon, or atNow / belowNow
	inject int     // script index to spawn after the slice; -1 for none
}

// runProgSliced runs p like runProgStep, but drives the kernel through
// AdvanceTo along plan (never past the program's own horizon), then
// finishes it the way RunUntil(p.horizon) would. A slice that returns with
// a wakeup at or before its horizon still queued is recorded in the trace,
// so it shows up as a divergence.
func runProgSliced(p prog, seed int64, fl flavor, plan []slice) []string {
	r := newStepRunner(p, seed, fl)
	k := r.k
	done := false
	var err error
	for _, s := range plan {
		if done {
			break
		}
		h := s.h
		switch h {
		case atNow:
			h = float64(k.Now())
		case belowNow:
			h = math.Max(0, float64(k.Now())-sleepQuantum/2)
		}
		if p.horizon >= 0 && h > p.horizon {
			h = p.horizon
		}
		done, err = k.AdvanceTo(sim.Time(h))
		if done {
			break
		}
		if k.PendingBy(sim.Time(h)) {
			r.rec.addf("AdvanceTo(%.9g) returned with a wakeup due @%.9g", h, float64(k.Now()))
		}
		if s.inject >= 0 {
			r.rec.addf("inject @%.9g", float64(k.Now()))
			r.spawn(s.inject)
		}
	}
	if !done {
		if p.horizon < 0 {
			_, err = k.AdvanceTo(sim.Time(math.Inf(1)))
		} else if done, err = k.AdvanceTo(sim.Time(p.horizon)); !done {
			err = k.RunUntil(sim.Time(p.horizon)) // kill what the horizon cuts off
		}
	}
	r.rec.addf("final now=%.9g err=%v", float64(k.Now()), err)
	return r.rec.lines
}

// randomHorizon draws the next horizon of a plan: a sentinel, a repeat of
// the previous horizon, or a step forward of a whole or half sleep quantum
// (program instants are whole quanta, so half steps fall between them).
func randomHorizon(rng *rand.Rand, last float64) float64 {
	switch rng.Intn(8) {
	case 0:
		return atNow
	case 1:
		return belowNow
	case 2:
		return last
	}
	return last + float64(rng.Intn(6))*sleepQuantum/2
}

var sliceFlavors = map[string]flavor{"blocking": allBlock, "step": allStep, "mixed": alternating}

// TestAdvanceToMatchesRun requires a sliced drive of each random program to
// produce the trace of a single Run, in every process flavour.
func TestAdvanceToMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		p := decodeProgram(data)
		var plan []slice
		last := 0.0
		for n := rng.Intn(16); n > 0; n-- {
			h := randomHorizon(rng, last)
			if h >= 0 {
				last = h
			}
			plan = append(plan, slice{h: h, inject: -1})
		}
		for name, fl := range sliceFlavors {
			want := runProgStep(p, kernelSeed, fl)
			got := runProgSliced(p, kernelSeed, fl, plan)
			if j := firstDiff(want, got); j >= 0 {
				t.Fatalf("plan %v:\n%s", plan, diffReport(p, "Run vs AdvanceTo ("+name+")", want, got, j))
			}
		}
	}
}

// TestAdvanceToInjection spawns scripts between slices at a few injection
// horizons, and requires the same trace whether the kernel was advanced
// straight to each injection horizon or through many intermediate slices.
func TestAdvanceToInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		p := decodeProgram(data)
		var coarse, fine []slice
		last := 0.0
		for n := 1 + rng.Intn(4); n > 0; n-- {
			h := last + float64(rng.Intn(6))*sleepQuantum/2
			for m := rng.Intn(6); m > 0; m-- {
				fh := randomHorizon(rng, last)
				if fh > h {
					fh = h
				}
				if fh >= 0 {
					last = fh
				}
				fine = append(fine, slice{h: fh, inject: -1})
			}
			in := slice{h: h, inject: rng.Intn(len(p.scripts))}
			coarse = append(coarse, in)
			fine = append(fine, in)
			last = h
		}
		for name, fl := range sliceFlavors {
			want := runProgSliced(p, kernelSeed, fl, coarse)
			got := runProgSliced(p, kernelSeed, fl, fine)
			if j := firstDiff(want, got); j >= 0 {
				t.Fatalf("coarse plan %v, fine plan %v:\n%s", coarse, fine,
					diffReport(p, "coarse vs fine slicing ("+name+")", want, got, j))
			}
		}
	}
}
