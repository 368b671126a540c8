package tracetool

import (
	"fmt"
	"io"
	"strings"
)

// WriteSummary renders one solve's accounting as an aligned text block:
// identity line, phase breakdown, the stats-event counters, the depth
// profile of the expansions and the pop rate.
func WriteSummary(w io.Writer, tr *Trace) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", tr.label())
	if st := tr.start(); st != nil {
		fmt.Fprintf(&sb, "method %s", st.Method)
		if st.HName != "" {
			fmt.Fprintf(&sb, ", heuristic %s", st.HName)
		}
		if st.N > 0 {
			fmt.Fprintf(&sb, ", %d processes", st.N)
		}
		if st.U > 0 {
			fmt.Fprintf(&sb, " on %d-core machines", st.U)
		}
		if st.Parallelism > 1 {
			fmt.Fprintf(&sb, ", %d expansion workers", st.Parallelism)
		}
		sb.WriteByte('\n')
	}
	if tr.Truncated {
		sb.WriteString("note: truncated trace (torn line or ring tail window); counters below may be partial\n")
	}
	if phases := tr.phases(); len(phases) > 0 {
		parts := make([]string, len(phases))
		for i, ph := range phases {
			parts[i] = fmt.Sprintf("%s %.3fms", ph.name, ph.durMS)
		}
		fmt.Fprintf(&sb, "phases: %s\n", strings.Join(parts, ", "))
	}
	order, counters := tr.counters()
	width := 0
	for _, name := range order {
		if len(name) > width {
			width = len(name)
		}
	}
	for _, name := range order {
		fmt.Fprintf(&sb, "  %-*s  %s\n", width, name, fmtCount(counters[name]))
	}
	if pps := tr.popsPerSec(); pps > 0 {
		fmt.Fprintf(&sb, "  %-*s  %.0f\n", width, "pops_per_sec", pps)
	}
	if depths, counts := tr.depthProfile(); len(depths) > 1 {
		var max int64
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		sb.WriteString("expansions by depth:\n")
		for i, d := range depths {
			bar := int(counts[i] * 40 / max)
			fmt.Fprintf(&sb, "  depth %3d  %8d  %s\n", d, counts[i], strings.Repeat("#", bar))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
