// Package cosched's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (§V). Each benchmark regenerates
// its experiment in Quick mode (the full configurations are available via
// cmd/experiments) and reports the headline quantity of the experiment as
// a custom metric where that is meaningful.
//
// Run with:
//
//	go test -bench=. -benchmem
package cosched

import (
	"strconv"
	"testing"

	"cosched/internal/experiments"
)

func benchExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	opts := experiments.RunOptions{Quick: true, Seed: 1}
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(id, opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return rep
}

// lastCell parses the numeric tail cell of the last row, used to surface
// a headline metric per experiment.
func lastCell(rep *experiments.Report, col int) (float64, bool) {
	if len(rep.Rows) == 0 {
		return 0, false
	}
	row := rep.Rows[len(rep.Rows)-1]
	if col >= len(row) {
		return 0, false
	}
	s := row[col]
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 's') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// BenchmarkTable1 regenerates Table I: OA* vs IP average degradation for
// serial jobs on dual- and quad-core machines.
func BenchmarkTable1(b *testing.B) {
	rep := benchExperiment(b, "table1")
	if v, ok := lastCell(rep, 4); ok {
		b.ReportMetric(v, "avg-degradation")
	}
}

// BenchmarkTable2 regenerates Table II: OA* vs IP for mixed serial and
// parallel jobs.
func BenchmarkTable2(b *testing.B) {
	rep := benchExperiment(b, "table2")
	if v, ok := lastCell(rep, 4); ok {
		b.ReportMetric(v, "avg-degradation")
	}
}

// BenchmarkTable3 regenerates Table III: solver efficiency (four IP
// branch-and-bound configurations vs OA* vs O-SVP).
func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3")
}

// BenchmarkTable4 regenerates Table IV: h(v) Strategy 1 vs Strategy 2 vs
// O-SVP solving time and visited paths.
func BenchmarkTable4(b *testing.B) {
	rep := benchExperiment(b, "table4")
	if v, ok := lastCell(rep, 5); ok {
		b.ReportMetric(v, "paths-strategy2")
	}
}

// BenchmarkFig5 regenerates Figure 5 (operational form): the optimality
// gap of the n/u-trimmed search that justifies HA*'s per-level budget.
func BenchmarkFig5(b *testing.B) {
	rep := benchExperiment(b, "fig5")
	if v, ok := lastCell(rep, 6); ok {
		b.ReportMetric(v, "pct-gap<=5%")
	}
}

// BenchmarkFig6 regenerates Figure 6: OA*-PE vs OA*-SE degradation on the
// PE + serial mix.
func BenchmarkFig6(b *testing.B) {
	rep := benchExperiment(b, "fig6")
	if v, ok := lastCell(rep, 2); ok {
		b.ReportMetric(v, "avg-deg-OA*PE")
	}
}

// BenchmarkFig7 regenerates Figure 7: OA*-PC vs OA*-PE on the PC + serial
// mix.
func BenchmarkFig7(b *testing.B) {
	rep := benchExperiment(b, "fig7")
	if v, ok := lastCell(rep, 2); ok {
		b.ReportMetric(v, "avg-ccd-OA*PC")
	}
}

// BenchmarkFig8 regenerates Figure 8: solving time with and without the
// communication-aware process condensation.
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8")
}

// BenchmarkFig9 regenerates Figure 9: OA* solving-time scalability.
func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9")
}

// BenchmarkFig10 regenerates Figure 10: OA*/HA*/PG per-application
// degradations on quad-core machines.
func BenchmarkFig10(b *testing.B) {
	rep := benchExperiment(b, "fig10")
	if v, ok := lastCell(rep, 1); ok {
		b.ReportMetric(v, "avg-deg-OA*")
	}
}

// BenchmarkFig11 regenerates Figure 11: the 8-core variant of Figure 10.
func BenchmarkFig11(b *testing.B) {
	rep := benchExperiment(b, "fig11")
	if v, ok := lastCell(rep, 1); ok {
		b.ReportMetric(v, "avg-deg-OA*")
	}
}

// BenchmarkFig12 regenerates Figure 12: HA* vs PG average degradation on
// large synthetic batches.
func BenchmarkFig12(b *testing.B) {
	rep := benchExperiment(b, "fig12")
	if v, ok := lastCell(rep, 4); ok {
		b.ReportMetric(v, "HA*-advantage-pct")
	}
}

// BenchmarkFig13 regenerates Figure 13: HA* solving-time scalability up
// to thousand-process batches.
func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13")
}
