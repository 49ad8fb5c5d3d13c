package experiment

import "netco/internal/topo"

// Scenario enumerates the six evaluation scenarios of §V-A.
type Scenario int

// Evaluation scenarios.
const (
	// ScenLinespeed is the insecure baseline without a combiner.
	ScenLinespeed Scenario = iota + 1
	// ScenCentral3 is the k=3 combiner with the data-plane compare.
	ScenCentral3
	// ScenCentral5 is the k=5 combiner.
	ScenCentral5
	// ScenPOX3 runs the k=3 compare on the controller.
	ScenPOX3
	// ScenDup3 splits over 3 routers without combining.
	ScenDup3
	// ScenDup5 splits over 5 routers without combining.
	ScenDup5
	// ScenInline3 is this repo's implementation of the paper's §IX
	// "compare as a middlebox" alternative: k=3 with inband compares,
	// no out-of-band detour. Not part of the paper's evaluation; used
	// by the architecture-comparison extension.
	ScenInline3
)

// AllScenarios is the Fig. 4/5 scenario set, in the paper's order.
var AllScenarios = []Scenario{ScenLinespeed, ScenDup3, ScenDup5, ScenCentral3, ScenCentral5, ScenPOX3}

// TableScenarios is the Table I / Fig. 7 scenario set (no POX3).
var TableScenarios = []Scenario{ScenLinespeed, ScenDup3, ScenDup5, ScenCentral3, ScenCentral5}

// String returns the paper's scenario name.
func (s Scenario) String() string {
	switch s {
	case ScenLinespeed:
		return "Linespeed"
	case ScenCentral3:
		return "Central3"
	case ScenCentral5:
		return "Central5"
	case ScenPOX3:
		return "POX3"
	case ScenDup3:
		return "Dup3"
	case ScenDup5:
		return "Dup5"
	case ScenInline3:
		return "Inline3"
	}
	return "Unknown"
}

// K returns the combiner parallelism.
func (s Scenario) K() int {
	switch s {
	case ScenCentral5, ScenDup5:
		return 5
	case ScenLinespeed:
		return 1
	default:
		return 3
	}
}

func (s Scenario) kind() topo.TestbedKind {
	switch s {
	case ScenLinespeed:
		return topo.KindLinespeed
	case ScenCentral3, ScenCentral5:
		return topo.KindCentral
	case ScenPOX3:
		return topo.KindPOX
	case ScenInline3:
		return topo.KindInline
	default:
		return topo.KindDup
	}
}
