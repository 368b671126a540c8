package solvecache

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

func newSpilled(t *testing.T, dir string, cfg Config[string]) *Cache[string] {
	t.Helper()
	cfg.Spill = &SpillConfig{Dir: dir}
	c, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, dir, Config[string]{})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
	if got := c.Stats().Spilled; got != 10 {
		t.Fatalf("Spilled = %d; want 10", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory is pre-warmed.
	c2 := newSpilled(t, dir, Config[string]{})
	defer c2.Close() //nolint:errcheck
	st := c2.Stats()
	if st.Replayed != 10 || st.ReplaySkipped != 0 {
		t.Fatalf("Replayed/Skipped = %d/%d; want 10/0", st.Replayed, st.ReplaySkipped)
	}
	for i := 0; i < 10; i++ {
		v, ok := c2.Get(fmt.Sprintf("key-%d", i))
		if !ok || v != fmt.Sprintf("value-%d", i) {
			t.Errorf("key-%d = (%q, %v) after replay; want value", i, v, ok)
		}
	}
	// The restart-warm contract: a Do for a replayed key is a Hit.
	if _, out, _ := c2.Do("key-3", func() (string, bool, error) {
		t.Error("compute ran for a replayed key")
		return "", false, nil
	}); out != Hit {
		t.Errorf("Do on replayed key = %v; want Hit", out)
	}
}

func TestSpillReplayRespectsBounds(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, dir, Config[string]{})
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("key-%d", i), strings.Repeat("v", 32))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with tight bounds: replay must evict down to them.
	c2 := newSpilled(t, dir, Config[string]{
		Capacity: 8,
		MaxBytes: 8 * 64,
		SizeOf:   func(v string) int { return len(v) },
	})
	defer c2.Close() //nolint:errcheck
	st := c2.Stats()
	if st.Entries > 8 {
		t.Errorf("Entries = %d after bounded replay; want <= 8", st.Entries)
	}
	if st.Bytes > 8*64 {
		t.Errorf("Bytes = %d after bounded replay; want <= %d", st.Bytes, 8*64)
	}
	if st.Replayed == 0 {
		t.Error("Replayed = 0; want > 0")
	}
}

// TestSpillSkipsRefusedEntry pins that only a stored entry is spilled:
// a value bigger than MaxBytes, offered once through Put and once
// through Do, is refused both times, never reaches the log, and so a
// restart over that log replays nothing.
func TestSpillSkipsRefusedEntry(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{MaxBytes: 64, SizeOf: func(v string) int { return len(v) }}
	c := newSpilled(t, dir, cfg)
	big := strings.Repeat("v", 100)
	c.Put("put", big)
	if _, _, err := c.Do("do", func() (string, bool, error) { return big, true, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 2 || st.Spilled != 0 {
		t.Fatalf("Entries/Evictions/Spilled = %d/%d/%d; want 0/2/0 (both refused, neither spilled)",
			st.Entries, st.Evictions, st.Spilled)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := newSpilled(t, dir, cfg)
	defer c2.Close() //nolint:errcheck
	if st := c2.Stats(); st.Replayed != 0 || st.Entries != 0 {
		t.Errorf("restart Replayed/Entries = %d/%d; want 0/0", st.Replayed, st.Entries)
	}
}

func TestSpillTornTail(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, dir, Config[string]{})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record as a crash mid-append would.
	segs, _, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments = (%v, %v)", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	c2 := newSpilled(t, dir, Config[string]{})
	defer c2.Close() //nolint:errcheck
	st := c2.Stats()
	if st.Replayed != 4 || st.ReplaySkipped != 1 {
		t.Fatalf("Replayed/Skipped = %d/%d after torn tail; want 4/1", st.Replayed, st.ReplaySkipped)
	}
	// The torn bytes must be gone from disk: a third open replays clean.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := newSpilled(t, dir, Config[string]{})
	defer c3.Close() //nolint:errcheck
	if st := c3.Stats(); st.Replayed != 4 || st.ReplaySkipped != 0 {
		t.Errorf("Replayed/Skipped = %d/%d after truncation; want 4/0", st.Replayed, st.ReplaySkipped)
	}
}

func TestSpillCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, dir, Config[string]{})
	c.Put("early", "value-early")
	c.Put("mid", "value-mid")
	c.Put("late", "value-late")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the middle record's payload: the checksum must
	// reject it, and — record boundaries now being untrusted — the rest
	// of the segment is abandoned.
	segs, _, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments = (%v, %v)", segs, err)
	}
	b, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	b[n+recordHeaderLen] ^= 0xFF // first key byte of the second record
	if err := os.WriteFile(segs[len(segs)-1], b, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newSpilled(t, dir, Config[string]{})
	defer c2.Close() //nolint:errcheck
	st := c2.Stats()
	if st.Replayed != 1 {
		t.Errorf("Replayed = %d; want 1 (only the record before the rot)", st.Replayed)
	}
	if st.ReplaySkipped == 0 {
		t.Error("ReplaySkipped = 0; want > 0")
	}
	if _, ok := c2.Get("early"); !ok {
		t.Error("early entry lost")
	}
	if _, ok := c2.Get("mid"); ok {
		t.Error("corrupt entry replayed")
	}
}

// TestSpillVersionSkewSkipsRecord covers both directions of skew: a
// record from a newer build, and a version-1 record (the retired binary
// Solution payload) met on the first boot of this build.
func TestSpillVersionSkewSkipsRecord(t *testing.T) {
	for _, version := range []byte{99, 1} {
		dir := t.TempDir()
		c := newSpilled(t, dir, Config[string]{})
		c.Put("cur-a", "keep-a")
		c.Put("skewed", "from-another-build")
		c.Put("cur-b", "keep-b")
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		segs, _, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		b[n+1] = version // version byte of the second record
		if err := os.WriteFile(segs[len(segs)-1], b, 0o644); err != nil {
			t.Fatal(err)
		}

		c2 := newSpilled(t, dir, Config[string]{})
		st := c2.Stats()
		if st.Replayed != 2 || st.ReplaySkipped != 1 {
			t.Fatalf("version %d: Replayed/Skipped = %d/%d; want 2/1 (skew skips one record, not the segment)",
				version, st.Replayed, st.ReplaySkipped)
		}
		if _, ok := c2.Get("cur-b"); !ok {
			t.Errorf("version %d: record after the skewed one was not replayed", version)
		}
		if _, ok := c2.Get("skewed"); ok {
			t.Errorf("version %d: skewed record was replayed", version)
		}
		c2.Close() //nolint:errcheck
	}
}

func TestSpillRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{Spill: &SpillConfig{Dir: dir, SegmentBytes: 256}}
	c, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("key-%02d", i), strings.Repeat("v", 32))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d segments after 40 stores at 256-byte rotation; want >= 2", len(segs))
	}
	cfg2 := Config[string]{Spill: &SpillConfig{Dir: dir, SegmentBytes: 256}}
	c2, err := NewWithConfig(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	if st := c2.Stats(); st.Replayed != 40 {
		t.Errorf("Replayed = %d across rotated segments; want 40", st.Replayed)
	}
	// Compaction collapsed the old generation: the live set fits one
	// fresh segment... which at 256-byte rotation is several files, but
	// strictly no more than needed for 40 live entries.
	segs2, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		for _, s2 := range segs2 {
			if s == s2 {
				t.Errorf("old segment %s survived compaction", s)
			}
		}
	}
}

// TestSpillConcurrentDoSingleShard is a -race test of concurrent Do
// traffic with byte-bound eviction running while flights for the same
// keys are in progress, over a replayed spill — eviction during an
// in-flight computation of the same key must not corrupt the flight
// table or the byte accounting.
func TestSpillConcurrentDoSingleShard(t *testing.T) {
	dir := t.TempDir()
	sized := Config[string]{
		Capacity: 32,
		MaxBytes: 512,
		SizeOf:   func(v string) int { return len(v) },
	}
	seed := newSpilled(t, dir, sized)
	for i := 0; i < 16; i++ {
		seed.Put(fmt.Sprintf("key-%d", i), strings.Repeat("s", 24))
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	c := newSpilled(t, dir, sized)
	if c.Stats().Replayed == 0 {
		t.Fatal("no replay; the test wants spill + live traffic together")
	}
	const workers, rounds, keys = 8, 50, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("key-%d", (w+r)%keys)
				v, _, err := c.Do(key, func() (string, bool, error) {
					return strings.Repeat("x", 24), true, nil
				})
				if err != nil || len(v) != 24 {
					t.Errorf("Do(%s) = (%q, %v)", key, v, err)
				}
				if r%7 == 0 {
					// Interleave Puts so eviction churns while flights
					// for the same keys are registered.
					c.Put(fmt.Sprintf("churn-%d-%d", w, r), strings.Repeat("c", 24))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 512 {
		t.Errorf("Bytes = %d under concurrent load; want <= 512", st.Bytes)
	}
	if got := len(c.flights); got != 0 {
		t.Errorf("%d flights leaked after all Do calls returned", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The log survived the churn: one more replay round-trips.
	c3 := newSpilled(t, dir, sized)
	defer c3.Close() //nolint:errcheck
	if st := c3.Stats(); st.Replayed == 0 {
		t.Error("nothing replayed after concurrent spill traffic")
	}
}

// TestSpillRestartKeepsRecencyOrder pins that compaction writes the one
// LRU list back-to-front: after a restart has compacted the log, a
// second restart into a smaller cache keeps exactly the most recently
// stored keys and evicts the rest oldest first.
func TestSpillRestartKeepsRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	const stored, capacity = 100, 64
	c := newSpilled(t, dir, Config[string]{})
	for i := 0; i < stored; i++ {
		c.Put(fmt.Sprintf("key-%d", i), "v")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := newSpilled(t, dir, Config[string]{})
	if err := compacted.Close(); err != nil {
		t.Fatal(err)
	}
	var evicted []string
	c2 := newSpilled(t, dir, Config[string]{Capacity: capacity, OnEvict: func(key string) { evicted = append(evicted, key) }})
	defer c2.Close() //nolint:errcheck
	if st := c2.Stats(); st.Replayed != stored || st.Entries != capacity {
		t.Fatalf("Replayed/Entries = %d/%d; want %d/%d", st.Replayed, st.Entries, stored, capacity)
	}
	for i := 0; i < stored; i++ {
		if _, ok := c2.Get(fmt.Sprintf("key-%d", i)); ok != (i >= stored-capacity) {
			t.Errorf("key-%d resident = %v after restart; want only the last %d stored", i, ok, capacity)
		}
	}
	for i, k := range evicted {
		if want := fmt.Sprintf("key-%d", i); k != want {
			t.Fatalf("eviction %d was %s; want %s (oldest first)", i, k, want)
		}
	}
}

func TestSpillSurvivesCloseRace(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, dir, Config[string]{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put(fmt.Sprintf("key-%d-%d", w, i), "v")
			}
		}(w)
	}
	if err := c.Close(); err != nil { // races the Puts: must not panic
		t.Fatal(err)
	}
	wg.Wait()
	c2 := newSpilled(t, dir, Config[string]{})
	defer c2.Close() //nolint:errcheck
	// Whatever made it to disk before Close replays clean; post-Close
	// Puts stayed memory-only.
	if st := c2.Stats(); st.ReplaySkipped != 0 {
		t.Errorf("ReplaySkipped = %d after Close race; want 0", st.ReplaySkipped)
	}
}
