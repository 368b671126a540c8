package cosched

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	data := []byte(`{
		"machine": "quad",
		"jobs": [
			{"kind": "serial", "program": "art"},
			{"kind": "serial", "program": "EP"},
			{"kind": "pe", "program": "MCM", "procs": 3},
			{"kind": "pc", "program": "MG-Par", "procs": 4}
		]
	}`)
	inst, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.NumJobs(); got != 4 {
		t.Errorf("jobs = %d; want 4", got)
	}
	if got := inst.NumProcesses(); got != 12 { // 2+3+4 = 9, padded to 12
		t.Errorf("procs = %d; want 12", got)
	}
	sched, err := Solve(inst, Options{Method: MethodHAStar})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalDegradation <= 0 {
		t.Error("spec-built instance produced no degradation")
	}
}

func TestParseSpecDefaults(t *testing.T) {
	// absent or empty machine -> quad; empty kind -> serial
	for _, spec := range []string{
		`{"jobs": [{"program": "BT"}, {"program": "CG"}]}`,
		`{"machine": "", "jobs": [{"program": "BT"}, {"program": "CG"}]}`,
	} {
		inst, err := ParseSpec([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if inst.NumProcesses() != 4 { // padded to one quad machine
			t.Errorf("%s: procs = %d; want 4", spec, inst.NumProcesses())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"bad json", `{`, "bad spec"},
		{"unknown machine", `{"machine":"hexa","jobs":[{"program":"BT"}]}`, "unknown machine"},
		{"no jobs", `{"machine":"quad"}`, "no jobs"},
		{"unknown kind", `{"jobs":[{"kind":"mapreduce","program":"BT"}]}`, "unknown kind"},
		{"pe without procs", `{"jobs":[{"kind":"pe","program":"MCM"}]}`, "procs"},
		{"pc without procs", `{"jobs":[{"kind":"pc","program":"MG-Par"}]}`, "procs"},
		{"unknown program", `{"jobs":[{"program":"nope"}]}`, "unknown serial program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.data))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
