// Package trace renders execution traces of dataflow runs: a Chrome
// trace-event log of the hook bus, CSV export of processing records for
// external analysis, and an ASCII Gantt view of device occupancy — the
// tooling used to debug the scheduling behaviours behind the paper's
// figures.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// WriteProcsCSV exports processing records as CSV with a header row.
func WriteProcsCSV(w io.Writer, procs []core.ProcRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"task_id", "filter", "node", "device", "start", "end"}); err != nil {
		return err
	}
	for _, r := range procs {
		rec := []string{
			strconv.FormatUint(r.TaskID, 10),
			r.Filter,
			strconv.Itoa(r.NodeID),
			r.Kind.String(),
			strconv.FormatFloat(float64(r.Start), 'g', -1, 64),
			strconv.FormatFloat(float64(r.End), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Gantt renders device busy intervals as a fixed-width ASCII chart over
// [0, horizon), one row per device, with `width` character cells. A cell is
// '#' if the device was busy for more than half of the cell's span, '+' if
// busy at all, '.' if idle.
func Gantt(devs []*hw.Device, horizon sim.Time, width int) string {
	if width < 1 || horizon <= 0 {
		return ""
	}
	rows := make([]string, 0, len(devs))
	sorted := append([]*hw.Device(nil), devs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	for _, d := range sorted {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-12s |", d.Name())
		for _, u := range metrics.Utilization(d.Intervals(), horizon, width) {
			switch {
			case u > 0.5:
				sb.WriteByte('#')
			case u > 0:
				sb.WriteByte('+')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('|')
		rows = append(rows, sb.String())
	}
	return strings.Join(rows, "\n") + "\n"
}
