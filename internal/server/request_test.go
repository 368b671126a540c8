package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cosched"
)

// TestRequestKeyMatchesFingerprintEquivalence pins the request key's
// contract: only the workload identity enters it, its canonical forms
// agree (seed 0 is seed 1, "" is "quad"), and requests that share a key
// build instances that share a fingerprint.
func TestRequestKeyMatchesFingerprintEquivalence(t *testing.T) {
	a := &SolveRequest{Synthetic: 6, Seed: 42, Machine: "quad"}
	b := &SolveRequest{Synthetic: 6, Seed: 42, Machine: "quad", Method: "beam", NoCache: true}
	cDiff := &SolveRequest{Synthetic: 6, Seed: 43, Machine: "quad"}
	if RequestKey(a) != RequestKey(b) {
		t.Fatal("method/cache knobs changed the request key; only the workload identity should")
	}
	if RequestKey(a) == RequestKey(cDiff) {
		t.Fatal("different seeds share a request key")
	}
	spec := &cosched.SpecFile{Jobs: []cosched.JobSpec{{Program: "BT"}, {Kind: "pc", Program: "MG-Par", Procs: 4}}}
	for _, pair := range [][2]*SolveRequest{
		{{Synthetic: 6}, {Synthetic: 6, Seed: 1, Machine: "quad"}},
		{{SyntheticLarge: 8, Seed: 5, Machine: "QUAD-CORE"}, {SyntheticLarge: 8, Seed: 5, Machine: "4"}},
		{{Spec: spec}, {Spec: spec, Seed: 1}},
	} {
		if RequestKey(pair[0]) != RequestKey(pair[1]) {
			t.Errorf("%+v and %+v build one instance but get different keys", *pair[0], *pair[1])
		}
		var fps [2]string
		for i, req := range pair {
			inst, err := build(req)
			if err != nil {
				t.Fatal(err)
			}
			if fps[i], err = inst.Fingerprint(); err != nil {
				t.Fatal(err)
			}
		}
		if fps[0] != fps[1] {
			t.Errorf("%+v and %+v share a key but not a fingerprint", *pair[0], *pair[1])
		}
	}
}

// FuzzSolveRequest drives arbitrary bodies through the front of the
// request path — decode, validate, key. Decoding never panics, nothing
// that validates exceeds the request bounds or fails
// cosched.Options.Validate, and a request's key is the key of its own
// JSON re-encoding.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range []string{ // the bodies scripts/ci.sh sends
		`{"synthetic": 8, "seed": 4, "method": "hastar"}`,
		`{"synthetic": 6, "method": "pg"}`,
		`{"synthetic": 6, "robust": true, "deadline_ms": 500}`,
		`{"synthetic": 26, "method": "oastar", "deadline_ms": 1500, "no_cache": true}`,
		`{"synthetic": 4, "method": "pg", "deadline_ms": 100, "no_cache": true}`,
		`{"synthetic": 8, "seed": 3, "method": "hastar"}`,
		`{"synthetic": 8, "seed": 9, "method": "hastar"}`,
		`{}`,
		`{"synthetic": 8, "h_strategy": 9}`,
		`{"synthetic": 8, "method": "oastar", "h_weight": 2, "robust": true}`,
		specBody,
	} {
		f.Add([]byte(body))
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		if decodeBody(httptest.NewRecorder(), r, &req) != nil {
			return
		}
		opts, err := s.prepare(&req, req.Robust)
		if err != nil {
			return
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("prepare accepted options Validate refuses: %v", err)
		}
		procs := 0.0
		if req.Spec != nil {
			for _, j := range req.Spec.Jobs {
				procs += math.Max(float64(j.Procs), 1)
			}
		}
		if req.Synthetic > maxProcesses || req.SyntheticLarge > maxProcesses || procs > maxProcesses {
			t.Fatalf("validated request exceeds the %d-process bound: %+v", maxProcesses, req)
		}
		reenc, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("validated request does not re-encode: %v", err)
		}
		var again SolveRequest
		if err := json.Unmarshal(reenc, &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if RequestKey(&again) != RequestKey(&req) {
			t.Fatalf("key changed across a JSON round trip: %s", reenc)
		}
	})
}
