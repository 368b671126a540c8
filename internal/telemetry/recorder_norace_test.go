//go:build !race

package telemetry

// The flight recorder's seqlock protocol (Ring) copies event payloads
// outside any lock: readers validate the per-slot sequence word before
// and after the copy and discard torn reads. That is correct under the
// Go memory model for the data the reader keeps, but the discarded
// speculative copies are flagged by the race detector, so this stress
// test is excluded from -race runs (scripts/ci.sh races the parallel
// search engine and the serving layer, not this package).

import (
	"sync"
	"testing"
)

func TestFlightRecorderConcurrentEmitAndDump(t *testing.T) {
	const writers, perWriter = 4, 5000
	fr := NewFlightRecorder(64)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				fr.Emit(Event{Ev: "expand", Pop: int64(i), Leader: w + 1}) //nolint:errcheck
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		if got := fr.Len(); got > fr.Cap() {
			t.Fatalf("recorder len = %d exceeds cap %d under concurrent emits", got, fr.Cap())
		}
		for _, ev := range fr.Events() {
			// Every surfaced event must be fully-formed, never torn: a
			// published slot always carries both fields of the write.
			if ev.Ev != "expand" || ev.Pop < 1 || ev.Pop > perWriter ||
				ev.Leader < 1 || ev.Leader > writers {
				t.Fatalf("torn event surfaced: %+v", ev)
			}
		}
	}

	if got := fr.Len(); got != 64 {
		t.Fatalf("recorder len = %d, want full ring 64", got)
	}
	if got := len(fr.Events()); got != 64 {
		t.Fatalf("quiescent snapshot = %d events, want 64", got)
	}
}
