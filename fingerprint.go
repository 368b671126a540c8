package cosched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"cosched/internal/degradation"
	"cosched/internal/job"
)

// fpWriter streams canonically-encoded values into a hash. Every value
// is written with a fixed-width encoding (strings length-prefixed), so
// two instances hash equal exactly when their encoded parameter streams
// are identical — there is no delimiter ambiguity to collide through.
type fpWriter struct {
	h hash.Hash
}

func (w fpWriter) str(s string) {
	w.i64(int64(len(s)))
	w.h.Write([]byte(s)) //nolint:errcheck // hash writes never fail
}

func (w fpWriter) i64(v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.h.Write(buf[:]) //nolint:errcheck // hash writes never fail
}

func (w fpWriter) f64(v float64) {
	w.i64(int64(math.Float64bits(v)))
}

func (w fpWriter) f64s(vs []float64) {
	w.i64(int64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

// Fingerprint returns a canonical content identity of the instance: a
// hex-encoded SHA-256 over the batch structure (jobs, kinds, process
// counts, padding), the machine-model parameters, the PC jobs'
// decomposition grids and halo volumes, and the degradation oracle's
// full parameter set (SDC cache profiles, or the pairwise interference
// matrix and communication factor). Two instances with equal
// fingerprints produce identical degradation queries and therefore
// identical optimal schedules — the property the serving daemon's
// solution cache (internal/solvecache) keys on.
//
// Instances backed by an oracle type this package does not know how to
// canonicalise return an error; callers (the daemon) then skip caching
// for that instance rather than risk serving a wrong schedule.
func (i *Instance) Fingerprint() (string, error) {
	h := sha256.New()
	w := fpWriter{h: h}
	w.str("cosched/instance/v1")

	m := i.in.Machine
	w.str(m.Name)
	w.i64(int64(m.Cores))
	w.i64(int64(m.SharedCacheBytes))
	w.i64(int64(m.Ways))
	w.i64(int64(m.LineBytes))
	w.f64(m.MissPenaltyCycles)
	w.f64(m.ClockGHz)
	w.f64(m.NetworkBandwidth)

	b := i.in.Batch
	w.i64(int64(len(b.Jobs)))
	for k := range b.Jobs {
		j := &b.Jobs[k]
		w.str(j.Name)
		w.i64(int64(j.Kind))
		w.i64(int64(len(j.Procs)))
	}
	w.i64(int64(b.NumProcs()))
	for k := range b.Procs {
		if b.Procs[k].Imaginary {
			w.i64(int64(b.Procs[k].ID))
		}
	}

	// PC decompositions, in job order (map iteration order must not leak
	// into the digest).
	for k := range b.Jobs {
		pt := i.in.Patterns[b.Jobs[k].ID]
		if pt == nil {
			continue
		}
		w.i64(int64(b.Jobs[k].ID))
		dims := make([]float64, len(pt.Dims))
		for d, n := range pt.Dims {
			dims[d] = float64(n)
		}
		w.f64s(dims)
		w.f64s(pt.HaloBytes)
	}

	if err := fingerprintOracle(w, b, i.in.Oracle); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprintOracle digests the oracle's answer-defining parameters.
func fingerprintOracle(w fpWriter, b *job.Batch, o degradation.Oracle) error {
	switch oracle := o.(type) {
	case *degradation.SDCOracle:
		w.str("oracle/sdc")
		for p := 1; p <= b.NumProcs(); p++ {
			prof := oracle.Profile(job.ProcID(p))
			if prof == nil {
				w.str("pad")
				continue
			}
			w.str(prof.Name)
			w.f64(prof.BaseCycles)
			w.f64(prof.Beyond)
			w.f64s(prof.Hits)
		}
	case *degradation.PairwiseOracle:
		w.str("oracle/pairwise")
		for _, row := range oracle.Matrix() {
			w.f64s(row)
		}
		w.f64(oracle.CommFactor())
	default:
		return fmt.Errorf("cosched: oracle %T has no canonical fingerprint", o)
	}
	return nil
}

// Fingerprint digests the answer-affecting option fields — Method,
// Accounting, HStrategy, KPerLevel, DisableCondensation, ExactParallel,
// HWeight, BeamWidth and IPConfig — into a short hex SHA-256. Combined
// with Instance.Fingerprint it keys the serving daemon's solution cache:
// two requests with equal instance and option fingerprints ask for the
// same schedule. HStrategy 3 is hashed as 0, the automatic bound it
// names, so the two share one cache entry.
//
// Budget and observation fields (MaxExpansions, MemoryBudget, tracing,
// metrics, progress) are deliberately excluded: they decide
// whether an answer gets proven within budget, not which answer is
// correct — and the cache only ever stores proven, non-degraded results.
// Parallelism is excluded for the same reason: the parallel engine only
// runs configurations whose optimal cost is order-independent, so worker
// count changes how fast the answer arrives, not what it costs.
func (o Options) Fingerprint() string {
	h := sha256.New()
	w := fpWriter{h: h}
	w.str("cosched/options/v1")
	w.i64(int64(o.Method))
	w.i64(int64(o.Accounting))
	hs := o.HStrategy
	if hs == 3 {
		hs = 0
	}
	w.i64(int64(hs))
	w.i64(int64(o.KPerLevel))
	flags := int64(0)
	if o.DisableCondensation {
		flags |= 1
	}
	if o.ExactParallel {
		flags |= 2
	}
	w.i64(flags)
	w.f64(o.HWeight)
	w.i64(int64(o.BeamWidth))
	w.str(o.IPConfig)
	return hex.EncodeToString(h.Sum(nil))
}
