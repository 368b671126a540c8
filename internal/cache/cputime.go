package cache

// CPU-time model of the evaluation (§V, after Patterson & Hennessy [24]):
//
//	CPUTime = (CPU_Clock_Cycle + Memory_Stall_Cycle) × Clock_Cycle_Time   (Eq. 14)
//	Memory_Stall_Cycle = Number_of_Misses × Miss_Penalty                  (Eq. 15)
//
// Profiles store access and miss *rates* per kilocycle of base execution,
// so Number_of_Misses = rate × BaseCycles/1000, and CPUTime scales linearly
// with BaseCycles. Degradations (Eq. 1) are ratios, so the kilocycle
// normalisation cancels.

// SoloCPUTime returns the single-run CPU time of the program in seconds on
// the given machine (Eq. 14 with solo misses).
func SoloCPUTime(m *Machine, p *Profile) float64 {
	return cpuTime(m, p, p.SoloMissRate())
}

// CoRunCPUTime returns the CPU time of the program when its effective
// shared-cache share yields the given miss rate.
func CoRunCPUTime(m *Machine, p *Profile, missRate float64) float64 {
	return cpuTime(m, p, missRate)
}

func cpuTime(m *Machine, p *Profile, missRate float64) float64 {
	misses := missRate * p.BaseCycles / 1000
	cycles := p.BaseCycles + misses*m.MissPenaltyCycles
	return cycles / (m.ClockGHz * 1e9)
}

// CoRunDegradations computes Eq. 1 for every process of a co-running group:
// d = (ct_co - ct_solo) / ct_solo, using SDC-predicted co-run miss rates.
// The result is index-aligned with profiles. A nil profile denotes an
// imaginary (padding) process, which neither suffers nor causes
// degradation; its entry is 0.
func CoRunDegradations(m *Machine, profiles []*Profile) []float64 {
	live := make([]*Profile, 0, len(profiles))
	for _, p := range profiles {
		if p != nil {
			live = append(live, p)
		}
	}
	eff := EffectiveWays(live, m.Ways)
	out := make([]float64, len(profiles))
	ri := 0
	for i, p := range profiles {
		if p == nil {
			continue
		}
		out[i] = CoRunDegradation(m, p, eff[ri])
		ri++
	}
	return out
}

// CoRunDegradation computes Eq. 1 for one program whose SDC share of the
// shared cache is the given number of ways (see Compete).
func CoRunDegradation(m *Machine, p *Profile, ways int) float64 {
	solo := SoloCPUTime(m, p)
	if solo <= 0 {
		return 0
	}
	return (CoRunCPUTime(m, p, p.MissRateWithWays(ways)) - solo) / solo
}
