package workload

import (
	"math"
	"math/rand"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

func TestProgramTablesComplete(t *testing.T) {
	if got := len(SerialProgramNames()); got != 16 {
		t.Errorf("serial programs = %d; want 16 (10 NPB + 6 SPEC)", got)
	}
	if got := len(PEProgramNames()); got != 5 {
		t.Errorf("PE programs = %d; want 5", got)
	}
	if got := len(PCProgramNames()); got != 4 {
		t.Errorf("PC programs = %d; want 4", got)
	}
}

func TestProgramLookups(t *testing.T) {
	if _, err := SerialProgram("art"); err != nil {
		t.Errorf("SerialProgram(art): %v", err)
	}
	if _, err := SerialProgram("nope"); err == nil {
		t.Error("SerialProgram accepted unknown name")
	}
	if _, err := PEProgram("RA"); err != nil {
		t.Errorf("PEProgram(RA): %v", err)
	}
	if _, err := PEProgram("BT"); err == nil {
		t.Error("PEProgram accepted serial name")
	}
	if _, err := PCProgram("MG-Par"); err != nil {
		t.Errorf("PCProgram(MG-Par): %v", err)
	}
	if _, err := PCProgram("MG"); err == nil {
		t.Error("PCProgram accepted serial name")
	}
}

func TestProfilesValidateOnAllMachines(t *testing.T) {
	machines := []*cache.Machine{&cache.DualCore, &cache.QuadCore, &cache.EightCore}
	for _, names := range [][]string{SerialProgramNames(), PEProgramNames(), PCProgramNames()} {
		for _, name := range names {
			var p Program
			var err error
			if p, err = SerialProgram(name); err != nil {
				if p, err = PEProgram(name); err != nil {
					p, err = PCProgram(name)
				}
			}
			if err != nil {
				t.Fatalf("lookup %q: %v", name, err)
			}
			for _, m := range machines {
				prof := p.Profile(m)
				if err := prof.Validate(); err != nil {
					t.Errorf("%s on %s: %v", name, m.Name, err)
				}
				if got := prof.MissRatio(); math.Abs(got-p.MissRatio) > 1e-9 {
					t.Errorf("%s: profile miss ratio %v != parameter %v", name, got, p.MissRatio)
				}
			}
		}
	}
}

func TestContentionCharacterPreserved(t *testing.T) {
	// The substitution promise of DESIGN.md §3: memory-intensive programs
	// must suffer more from an aggressive co-runner than compute-bound
	// programs do.
	m := &cache.QuadCore
	art, _ := SerialProgram("art")
	ep, _ := SerialProgram("EP")
	mg, _ := SerialProgram("MG")
	aggressor := art.Profile(m)
	dArt := cache.CoRunDegradations(m, []*cache.Profile{mg.Profile(m), aggressor, aggressor, aggressor})[0]
	dEP := cache.CoRunDegradations(m, []*cache.Profile{ep.Profile(m), aggressor, aggressor, aggressor})[0]
	if dArt <= dEP {
		t.Errorf("MG degradation %v <= EP degradation %v; memory code should suffer more", dArt, dEP)
	}
	if dEP > 0.10 {
		t.Errorf("EP degradation = %v; compute-bound code should barely degrade", dEP)
	}
	if dArt < 0.02 {
		t.Errorf("MG degradation = %v; memory code should degrade noticeably", dArt)
	}
}

func TestSerialInstance(t *testing.T) {
	in, err := SerialInstance([]string{"BT", "CG", "EP", "FT"}, &cache.QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Batch.NumProcs(); got != 4 {
		t.Errorf("NumProcs = %d; want 4", got)
	}
	c := in.Cost(degradation.ModePC)
	cost := c.PartitionCost([][]job.ProcID{{1, 2, 3, 4}})
	if cost <= 0 {
		t.Errorf("co-running 4 programs has cost %v; want > 0", cost)
	}
	if _, err := SerialInstance([]string{"nope"}, &cache.QuadCore); err == nil {
		t.Error("SerialInstance accepted unknown program")
	}
}

func TestFirstSerialNames(t *testing.T) {
	names, err := FirstSerialNames(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 8 || names[0] != "BT" {
		t.Errorf("FirstSerialNames(8) = %v", names)
	}
	if _, err := FirstSerialNames(99); err == nil {
		t.Error("FirstSerialNames(99) accepted")
	}
}

func TestTableIInstance(t *testing.T) {
	for _, n := range []int{8, 12, 16} {
		in, err := TableIInstance(n, &cache.DualCore)
		if err != nil {
			t.Fatalf("TableIInstance(%d): %v", n, err)
		}
		if got := in.Batch.NumProcs(); got != n {
			t.Errorf("TableIInstance(%d) procs = %d", n, got)
		}
		for _, j := range in.Batch.Jobs {
			if j.Kind != job.Serial {
				t.Errorf("TableIInstance(%d) contains non-serial job %q", n, j.Name)
			}
		}
	}
}

func TestTableIIInstance(t *testing.T) {
	wantPar := map[int]int{8: 2, 12: 3, 16: 4}
	for _, n := range []int{8, 12, 16} {
		in, err := TableIIInstance(n, &cache.QuadCore)
		if err != nil {
			t.Fatalf("TableIIInstance(%d): %v", n, err)
		}
		if got := in.Batch.NumProcs(); got != n {
			t.Errorf("TableIIInstance(%d) procs = %d", n, got)
		}
		var pcJobs int
		for _, j := range in.Batch.Jobs {
			if j.Kind == job.PC {
				pcJobs++
				if len(j.Procs) != wantPar[n] {
					t.Errorf("TableIIInstance(%d): job %q has %d procs; want %d",
						n, j.Name, len(j.Procs), wantPar[n])
				}
				if in.Patterns[j.ID] == nil {
					t.Errorf("TableIIInstance(%d): job %q has no pattern", n, j.Name)
				}
			}
		}
		if pcJobs != 2 {
			t.Errorf("TableIIInstance(%d): %d PC jobs; want 2 (MG-Par, LU-Par)", n, pcJobs)
		}
	}
	if _, err := TableIIInstance(10, &cache.QuadCore); err == nil {
		t.Error("TableIIInstance(10) accepted")
	}
}

func TestPEMixInstance(t *testing.T) {
	in, err := PEMixInstance(10, &cache.QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	var peJobs, serial int
	for _, j := range in.Batch.Jobs {
		switch j.Kind {
		case job.PE:
			peJobs++
			if len(j.Procs) != 10 {
				t.Errorf("PE job %q has %d procs; want 10", j.Name, len(j.Procs))
			}
		case job.Serial:
			serial++
		}
	}
	if peJobs != 5 {
		t.Errorf("PE jobs = %d; want 5", peJobs)
	}
	if serial != 5 {
		t.Errorf("serial jobs = %d; want 5", serial)
	}
	// batch padded to multiple of 4
	if in.Batch.NumProcs()%4 != 0 {
		t.Errorf("batch size %d not padded", in.Batch.NumProcs())
	}
}

func TestPCMixInstance(t *testing.T) {
	in, err := PCMixInstance(11, &cache.EightCore)
	if err != nil {
		t.Fatal(err)
	}
	var pcJobs int
	for _, j := range in.Batch.Jobs {
		if j.Kind == job.PC {
			pcJobs++
			if in.Patterns[j.ID] == nil {
				t.Errorf("PC job %q missing pattern", j.Name)
			}
		}
	}
	if pcJobs != 4 {
		t.Errorf("PC jobs = %d; want 4", pcJobs)
	}
}

func TestFigNames(t *testing.T) {
	if got := len(Fig10Names()); got != 12 {
		t.Errorf("Fig10Names = %d entries; want 12", got)
	}
	if got := len(Fig11Names()); got != 16 {
		t.Errorf("Fig11Names = %d entries; want 16", got)
	}
	for _, n := range append(Fig10Names(), Fig11Names()...) {
		if _, err := SerialProgram(n); err != nil {
			t.Errorf("figure name %q not a serial program", n)
		}
	}
}

func TestSyntheticProgramMissRatioRange(t *testing.T) {
	// Fig. 5 recipe: solo miss ratios uniform in [15%, 75%].
	rng := rand.New(rand.NewSource(11))
	var lo, hi float64 = 1, 0
	for i := 0; i < 500; i++ {
		p := SyntheticProgram("s", rng)
		if p.MissRatio < 0.15 || p.MissRatio > 0.75 {
			t.Fatalf("miss ratio %v outside [0.15, 0.75]", p.MissRatio)
		}
		lo = math.Min(lo, p.MissRatio)
		hi = math.Max(hi, p.MissRatio)
		if p.AccessRate <= 0 || p.Reuse <= 0 || p.Reuse >= 1 || p.BaseGCycles <= 0 {
			t.Fatalf("implausible synthetic program %+v", p)
		}
	}
	if lo > 0.20 || hi < 0.70 {
		t.Errorf("miss ratios span [%v,%v]; expected to fill most of [0.15,0.75]", lo, hi)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := SyntheticSerialInstance(12, &cache.QuadCore, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticSerialInstance(12, &cache.QuadCore, 99)
	if err != nil {
		t.Fatal(err)
	}
	da := a.Oracle.Degradation(1, []job.ProcID{2, 3, 4})
	db := b.Oracle.Degradation(1, []job.ProcID{2, 3, 4})
	if da != db {
		t.Errorf("same seed gave different degradations: %v vs %v", da, db)
	}
	c, err := SyntheticSerialInstance(12, &cache.QuadCore, 100)
	if err != nil {
		t.Fatal(err)
	}
	dc := c.Oracle.Degradation(1, []job.ProcID{2, 3, 4})
	if dc == da {
		t.Errorf("different seeds gave identical degradations: %v", dc)
	}
}

func TestSyntheticMixedInstance(t *testing.T) {
	in, err := SyntheticMixedInstance(72, 6, 8, &cache.QuadCore, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Batch.NumProcs(); got != 72 {
		t.Errorf("NumProcs = %d; want 72", got)
	}
	var pc, serial int
	for _, j := range in.Batch.Jobs {
		if j.Kind == job.PC {
			pc++
		} else {
			serial++
		}
	}
	if pc != 6 || serial != 72-48 {
		t.Errorf("pc=%d serial=%d; want 6/24", pc, serial)
	}
	if _, err := SyntheticMixedInstance(10, 3, 4, &cache.QuadCore, 5); err == nil {
		t.Error("oversubscribed mixed instance accepted")
	}
}

func TestSyntheticPairwiseInstance(t *testing.T) {
	in, err := SyntheticPairwiseInstance(100, &cache.QuadCore, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Batch.NumProcs(); got != 100 {
		t.Errorf("NumProcs = %d; want 100", got)
	}
	d := in.Oracle.Degradation(1, []job.ProcID{2, 3, 4})
	if d < 0 || d > 1.0 {
		t.Errorf("pairwise degradation = %v; want a plausible fraction", d)
	}
	// additive: d(1,{2,3}) = d(1,{2}) + d(1,{3})
	d23 := in.Oracle.Degradation(1, []job.ProcID{2, 3})
	d2 := in.Oracle.Degradation(1, []job.ProcID{2})
	d3 := in.Oracle.Degradation(1, []job.ProcID{3})
	if math.Abs(d23-(d2+d3)) > 1e-12 {
		t.Errorf("pairwise oracle not additive: %v vs %v", d23, d2+d3)
	}
}

func TestPairwiseFromOracle(t *testing.T) {
	in, err := SerialInstance([]string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"}, &cache.DualCore)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := PairwiseFromOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	// pair degradations must agree exactly with the SDC oracle
	for p := job.ProcID(1); int(p) <= 8; p++ {
		for q := job.ProcID(1); int(q) <= 8; q++ {
			if p == q {
				continue
			}
			want := in.Oracle.Degradation(p, []job.ProcID{q})
			got := pw.Oracle.Degradation(p, []job.ProcID{q})
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("pair (%d,%d): pairwise %v != sdc %v", p, q, got, want)
			}
		}
	}
}

// TestPairwiseFromOracleAllocationsLinear guards the conversion: one
// co-runner slice serves all n(n-1) pair queries, so each added process
// costs its matrix row and nothing per pair.
func TestPairwiseFromOracleAllocationsLinear(t *testing.T) {
	allocs := func(n int) float64 {
		in, err := SyntheticSerialInstance(n, &cache.QuadCore, 1)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := PairwiseFromOracle(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	if large-small > 64-16 {
		t.Errorf("converting 64 processes costs %.0f allocs, 16 cost %.0f; want at most one more per process", large, small)
	}
}

func TestDefaultHalo(t *testing.T) {
	for _, name := range append(PCProgramNames(), "unknown") {
		hx, hy := DefaultHalo(name)
		if hx <= 0 || hy <= 0 {
			t.Errorf("DefaultHalo(%q) = %v,%v", name, hx, hy)
		}
	}
}
