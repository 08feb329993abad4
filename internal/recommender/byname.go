package recommender

import "fmt"

// ByName constructs a recommender from its paper abbreviation. The seed is
// used only by methods with learned parameters (PIE); the heuristic and
// linear methods are deterministic and ignore it.
func ByName(name string, seed int64) (Recommender, error) {
	switch name {
	case "PT":
		return NewPT(), nil
	case "DBH":
		return NewDBH(), nil
	case "DBH-T":
		return NewDBHT(), nil
	case "OntoSim":
		return NewOntoSim(), nil
	case "PIE", "PIE-Sim":
		return NewPIESim(seed), nil
	case "L-WD":
		return NewLWD(), nil
	case "L-WD-T":
		return NewLWDT(), nil
	}
	return nil, fmt.Errorf("recommender: unknown recommender %q", name)
}
