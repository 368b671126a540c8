package cosched

import (
	"encoding/json"
	"fmt"
	"strings"
)

// SpecFile is the JSON description of a workload, the format
// cmd/coschedcli accepts via -specfile:
//
//	{
//	  "machine": "quad",
//	  "jobs": [
//	    {"kind": "serial", "program": "art"},
//	    {"kind": "pe", "program": "MCM", "procs": 4},
//	    {"kind": "pc", "program": "MG-Par", "procs": 6}
//	  ]
//	}
type SpecFile struct {
	// Machine is the machine class: "dual", "quad" or "8core".
	Machine string `json:"machine"`
	// Jobs lists the batch's jobs in order.
	Jobs []JobSpec `json:"jobs"`
}

// JobSpec describes one job of a SpecFile.
type JobSpec struct {
	// Kind is "serial", "pe" or "pc".
	Kind string `json:"kind"`
	// Program is a catalogue name matching the kind (see
	// SerialPrograms, PEPrograms, PCPrograms).
	Program string `json:"program"`
	// Procs is the process count for parallel jobs (ignored for serial
	// jobs).
	Procs int `json:"procs,omitempty"`
}

// ParseSpec builds an Instance from a JSON workload description.
func ParseSpec(data []byte) (*Instance, error) {
	var sf SpecFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("cosched: bad spec: %w", err)
	}
	return sf.Build()
}

// Build materialises the spec.
func (sf *SpecFile) Build() (*Instance, error) {
	mk, err := ParseMachineKind(sf.Machine)
	if err != nil {
		return nil, err
	}
	if len(sf.Jobs) == 0 {
		return nil, fmt.Errorf("cosched: spec has no jobs")
	}
	w := NewWorkload()
	for i, j := range sf.Jobs {
		switch strings.ToLower(j.Kind) {
		case "serial", "se", "":
			w.AddSerial(j.Program)
		case "pe":
			if j.Procs < 1 {
				return nil, fmt.Errorf("cosched: job %d (%s): pe jobs need procs >= 1", i, j.Program)
			}
			w.AddPE(j.Program, j.Procs)
		case "pc":
			if j.Procs < 1 {
				return nil, fmt.Errorf("cosched: job %d (%s): pc jobs need procs >= 1", i, j.Program)
			}
			w.AddPC(j.Program, j.Procs)
		default:
			return nil, fmt.Errorf("cosched: job %d: unknown kind %q", i, j.Kind)
		}
	}
	return w.Build(mk)
}
