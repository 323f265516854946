//go:build !race

package simtest

// RaceEnabled reports whether the race detector is active. Tests whose
// thresholds or run times its instrumentation distorts skip under it:
// allocation gates, and full-report determinism runs.
const RaceEnabled = false
