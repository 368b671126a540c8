package cosched

import "testing"

func mustFingerprint(t *testing.T, inst *Instance) string {
	t.Helper()
	fp, err := inst.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if len(fp) != 64 {
		t.Fatalf("Fingerprint = %q; want 64 hex chars", fp)
	}
	return fp
}

func TestInstanceFingerprintStableAcrossRebuilds(t *testing.T) {
	build := func() *Instance {
		inst, err := NewWorkload().
			AddSerial("BT").AddSerial("LU").AddPE("PI", 2).AddPC("MG-Par", 4).
			Build(QuadCore)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	a, b := build(), build()
	fa, fb := mustFingerprint(t, a), mustFingerprint(t, b)
	if fa != fb {
		t.Errorf("identical workloads fingerprint differently:\n  %s\n  %s", fa, fb)
	}

	// Solving must not change the identity.
	if _, err := Solve(a, Options{Method: MethodPG}); err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, a); got != fa {
		t.Errorf("fingerprint changed after solving: %s -> %s", fa, got)
	}
}

func TestInstanceFingerprintSensitivity(t *testing.T) {
	base, err := NewWorkload().AddSerial("BT").AddSerial("LU").Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, base)

	jobsChanged, err := NewWorkload().AddSerial("BT").AddSerial("MG").Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, jobsChanged); got == fp {
		t.Error("different job set fingerprints equal")
	}

	machineChanged, err := NewWorkload().AddSerial("BT").AddSerial("LU").Build(EightCore)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, machineChanged); got == fp {
		t.Error("different machine fingerprints equal")
	}
}

func TestInstanceFingerprintPairwise(t *testing.T) {
	a, err := SyntheticLarge(24, QuadCore, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticLarge(24, QuadCore, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SyntheticLarge(24, QuadCore, 8)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb, fc := mustFingerprint(t, a), mustFingerprint(t, b), mustFingerprint(t, c)
	if fa != fb {
		t.Errorf("same-seed pairwise instances fingerprint differently:\n  %s\n  %s", fa, fb)
	}
	if fa == fc {
		t.Error("different-seed pairwise instances fingerprint equal")
	}
}

func TestOptionsFingerprintIgnoresBudgets(t *testing.T) {
	base := Options{Method: MethodHAStar, HStrategy: 3, BeamWidth: 8, HWeight: 1.2}
	fp := base.Fingerprint()

	budgeted := base
	budgeted.MaxExpansions = 456
	budgeted.MemoryBudget = 789
	if got := budgeted.Fingerprint(); got != fp {
		t.Errorf("budget fields changed the options fingerprint: %s -> %s", fp, got)
	}

	for name, mutate := range map[string]func(*Options){
		"Method":    func(o *Options) { o.Method = MethodPG },
		"HStrategy": func(o *Options) { o.HStrategy = 1 },
		"BeamWidth": func(o *Options) { o.BeamWidth = 16 },
		"HWeight":   func(o *Options) { o.HWeight = 1.5 },
		"KPerLevel": func(o *Options) { o.KPerLevel = 4 },
	} {
		changed := base
		mutate(&changed)
		if changed.Fingerprint() == fp {
			t.Errorf("changing %s did not change the options fingerprint", name)
		}
	}
}

// TestOptionsFingerprintHStrategy pins the h choice's part of the key:
// HStrategy 3 runs the search 0 runs, so the two share a fingerprint,
// while 0, 1 and 2 differ. The default options' fingerprint is pinned
// to its recorded value, since every key in a spill log carries it.
func TestOptionsFingerprintHStrategy(t *testing.T) {
	if got, want := (Options{}).Fingerprint(), "fcfc8c6860a42d26d04eb5099d897dfe4e1797d6340d7da1b58df6d0697c33e7"; got != want {
		t.Errorf("default options fingerprint = %s; want %s", got, want)
	}
	for _, method := range []Method{MethodOAStar, MethodHAStar} {
		fps := map[int]string{}
		for hs := 0; hs <= 3; hs++ {
			fps[hs] = Options{Method: method, HStrategy: hs}.Fingerprint()
		}
		if fps[0] != fps[3] {
			t.Errorf("%v: HStrategy 0 and 3 fingerprint differently", method)
		}
		if fps[0] == fps[1] || fps[0] == fps[2] || fps[1] == fps[2] {
			t.Errorf("%v: HStrategy 0, 1 and 2 do not all differ: %v", method, fps)
		}
	}
}

// TestInstanceFingerprintGolden pins one SDC and one pairwise instance's
// fingerprint to values recorded by an earlier release. A -cache-dir
// spill log survives an upgrade only while fingerprints stay put, so a
// change here invalidates every persisted cache: bump the fingerprint's
// version string on purpose rather than update these literals.
func TestInstanceFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Instance, error)
		want  string
	}{
		{"sdc-mixed-16", func() (*Instance, error) { return SyntheticMixed(16, 6, 2, QuadCore, 1) },
			"07b112d49cce920447e063421e7d895a05425f2405be86ce9c854591b9daca2c"},
		{"pairwise-240", func() (*Instance, error) { return SyntheticLarge(240, QuadCore, 1) },
			"24bc8b8a7836289258de6b5d9abd432f5cc39825a8a0870b2fdf3e09c9e9df80"},
	} {
		inst, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := mustFingerprint(t, inst); got != tc.want {
			t.Errorf("%s fingerprint = %s; want %s", tc.name, got, tc.want)
		}
	}
}
