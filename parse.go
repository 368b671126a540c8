package cosched

import (
	"fmt"
	"strings"
)

// ParseMethod resolves a method name ("oastar", "hastar", "ip", "osvp",
// "pg", "brute" and common aliases, case-insensitively) to its Method.
// It is the parser behind cmd/coschedcli's -method flag and the serving
// daemon's request field.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "oastar", "oa*", "oa":
		return MethodOAStar, nil
	case "hastar", "ha*", "ha":
		return MethodHAStar, nil
	case "ip":
		return MethodIP, nil
	case "osvp", "o-svp":
		return MethodOSVP, nil
	case "pg":
		return MethodPG, nil
	case "brute", "bruteforce", "bf":
		return MethodBruteForce, nil
	default:
		return 0, fmt.Errorf("cosched: unknown method %q", s)
	}
}

// ParseAccounting resolves an accounting name ("se", "pe", "pc",
// case-insensitively) to its Accounting mode.
func ParseAccounting(s string) (Accounting, error) {
	switch strings.ToLower(s) {
	case "se":
		return AccountSE, nil
	case "pe":
		return AccountPE, nil
	case "pc":
		return AccountPC, nil
	default:
		return 0, fmt.Errorf("cosched: unknown accounting %q (se, pe, pc)", s)
	}
}

// ParseMachineKind resolves a machine-class name ("dual", "quad",
// "8core" and common aliases, case-insensitively) to its MachineKind.
// The empty name means quad-core, the default of spec files and the
// serving daemon's requests.
func ParseMachineKind(s string) (MachineKind, error) {
	switch strings.ToLower(s) {
	case "dual", "dual-core", "2":
		return DualCore, nil
	case "quad", "quad-core", "4", "":
		return QuadCore, nil
	case "8core", "8-core", "eight", "8":
		return EightCore, nil
	default:
		return 0, fmt.Errorf("cosched: unknown machine %q (dual, quad, 8core)", s)
	}
}
