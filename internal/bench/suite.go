package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment names accepted by Run and the bgpcbench command.
var experimentNames = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"figure1", "figure2", "figure3",
	"ablation-sched", "ablation-d2balance", "ablation-netvariants", "ablation-dist", "ablation-recolor",
	"trajectory",
}

// ExperimentNames returns the valid experiment identifiers, sorted.
func ExperimentNames() []string {
	out := append([]string(nil), experimentNames...)
	sort.Strings(out)
	return out
}

// Run executes one named experiment and returns its tables.
func Run(name string, cfg Config) ([]*Table, error) {
	one := func(t *Table, err error) ([]*Table, error) {
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
	switch strings.ToLower(name) {
	case "table1":
		return one(Table1(cfg))
	case "table2":
		return one(Table2(cfg))
	case "table3":
		return one(SpeedupTable(cfg, false))
	case "table4":
		return one(SpeedupTable(cfg, true))
	case "table5":
		return one(Table5(cfg))
	case "table6":
		return one(Table6(cfg))
	case "figure1":
		return one(Figure1(cfg))
	case "figure2":
		return Figure2(cfg)
	case "figure3":
		return Figure3(cfg)
	case "ablation-sched":
		return one(AblationSchedule(cfg))
	case "ablation-d2balance":
		return one(AblationD2Balance(cfg))
	case "ablation-netvariants":
		return one(AblationNetVariants(cfg))
	case "ablation-dist":
		return one(AblationDistributed(cfg))
	case "ablation-recolor":
		return one(AblationRecoloring(cfg))
	case "trajectory":
		return one(Trajectory(cfg))
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(ExperimentNames(), ", "))
	}
}
