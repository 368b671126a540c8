package solvecache

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleSolution() *Solution {
	return &Solution{
		Cost:        3.25,
		AvgCost:     1.625,
		Groups:      [][]int{{0, 3}, {1, 2}, {4}},
		Machines:    [][]string{{"lu", "astar"}, {"mg", "bt"}, {"ft"}},
		Degraded:    false,
		AbortReason: "",
		Fallbacks: []SolutionFallback{
			{Method: "ip", Degraded: false, Aborted: "deadline", Err: "lp relaxation timed out"},
			{Method: "hastar", Degraded: false},
		},
		SolveMS: 12.5,
		SolveID: 42,
	}
}

// TestSolutionRoundTrip stores solutions through a spilled cache and
// replays them: the JSON payload must restore every field.
func TestSolutionRoundTrip(t *testing.T) {
	sols := map[string]*Solution{
		"full":  sampleSolution(),
		"empty": {},
		"degraded": {
			Cost: 9, AvgCost: 3, Degraded: true, AbortReason: "memory",
			Groups: [][]int{{0}}, Machines: [][]string{{"m"}},
		},
	}
	dir := t.TempDir()
	c, err := NewWithConfig(Config[*Solution]{Spill: &SpillConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range sols {
		c.Put(name, s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := NewWithConfig(Config[*Solution]{Spill: &SpillConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	for name, s := range sols {
		got, ok := c2.Get(name)
		if !ok || !reflect.DeepEqual(got, s) {
			t.Errorf("%s: replayed (%+v, %v); want %+v", name, got, ok, s)
		}
	}
}

// TestDecodeSolutionRejectsDamage replays payloads that frame and
// checksum cleanly but are not a solution's JSON: each is skipped, and
// the intact record after them still replays.
func TestDecodeSolutionRejectsDamage(t *testing.T) {
	enc, err := json.Marshal(sampleSolution())
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i, payload := range [][]byte{
		enc[:len(enc)-3], // short payload
		append(append([]byte(nil), enc...), 0xFF), // trailing byte
		nil, // empty payload
		enc,
	} {
		if seg, err = AppendRecord(seg, Record{Key: strconv.Itoa(i), Value: payload}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache-00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewWithConfig(Config[*Solution]{Spill: &SpillConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if st := c.Stats(); st.Replayed != 1 || st.ReplaySkipped != 3 {
		t.Fatalf("Replayed/Skipped = %d/%d; want 1/3", st.Replayed, st.ReplaySkipped)
	}
	if got, ok := c.Get("3"); !ok || !reflect.DeepEqual(got, sampleSolution()) {
		t.Errorf("intact record replayed as (%+v, %v)", got, ok)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{Key: "fingerprint-abc", Value: []byte("payload bytes")}
	b, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Two records back to back decode in sequence.
	b, err = AppendRecord(b, Record{Key: "k2", Value: nil})
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(b)
	if err != nil || got.Key != rec.Key || !bytes.Equal(got.Value, rec.Value) {
		t.Fatalf("DecodeRecord = (%+v, %v); want %+v", got, err, rec)
	}
	got2, n2, err := DecodeRecord(b[n:])
	if err != nil || got2.Key != "k2" || len(got2.Value) != 0 {
		t.Fatalf("second DecodeRecord = (%+v, %v)", got2, err)
	}
	if n+n2 != len(b) {
		t.Errorf("records consumed %d of %d bytes", n+n2, len(b))
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	b, err := AppendRecord(nil, Record{Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRecord(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("torn tail: err = %v; want ErrTruncated", err)
	}
	if _, _, err := DecodeRecord(b[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("torn header: err = %v; want ErrTruncated", err)
	}

	badMagic := append([]byte(nil), b...)
	badMagic[0] = 0x00
	if _, _, err := DecodeRecord(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v; want ErrCorrupt", err)
	}

	flipped := append([]byte(nil), b...)
	flipped[len(flipped)-1] ^= 0xFF // damage the value: checksum must catch it
	if _, _, err := DecodeRecord(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload: err = %v; want ErrCorrupt", err)
	}

	insane := append([]byte(nil), b...)
	insane[2], insane[3] = 0xFF, 0xFF // keyLen far beyond maxKeyLen
	if _, _, err := DecodeRecord(insane); !errors.Is(err, ErrCorrupt) {
		t.Errorf("insane length: err = %v; want ErrCorrupt", err)
	}

	// Version-skewed record: frame validates, n covers the record, so a
	// replayer can skip it and keep going.
	skewed := append([]byte(nil), b...)
	skewed[1] = 99
	_, n, err := DecodeRecord(skewed)
	if !errors.Is(err, errVersionSkew) {
		t.Fatalf("version skew: err = %v; want errVersionSkew", err)
	}
	if n != len(b) {
		t.Errorf("version skew: n = %d; want %d (skippable)", n, len(b))
	}
}

func TestAppendRecordBounds(t *testing.T) {
	if _, err := AppendRecord(nil, Record{Key: strings.Repeat("k", maxKeyLen+1)}); err == nil {
		t.Error("oversized key accepted")
	}
	if _, err := AppendRecord(nil, Record{Key: "k", Value: make([]byte, maxValueLen+1)}); err == nil {
		t.Error("oversized value accepted")
	}
}

// FuzzDecodeRecord feeds the record decoder arbitrary bytes: it must
// never panic, and anything it accepts must round-trip byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	seed, _ := AppendRecord(nil, Record{Key: "fingerprint", Value: []byte("solution")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{recordMagic})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("accepted record consumed %d of %d bytes", n, len(b))
		}
		reenc, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, b[:n]) {
			t.Fatal("accepted record does not round-trip to its input bytes")
		}
	})
}

// FuzzDecodeSolution feeds the spill payload decoder (JSON into a
// *Solution, as replay does) arbitrary bytes: it must never panic, and
// anything it accepts must re-encode to a payload that decodes to the
// same solution.
func FuzzDecodeSolution(f *testing.F) {
	seed, _ := json.Marshal(sampleSolution())
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var s *Solution
		if json.Unmarshal(b, &s) != nil {
			return
		}
		reenc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted solution does not re-encode: %v", err)
		}
		var again *Solution
		if err := json.Unmarshal(reenc, &again); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted solution does not round-trip (%v)", err)
		}
	})
}
