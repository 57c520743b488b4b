package bench

import (
	"fmt"

	"bgpc/internal/core"
	"bgpc/internal/verify"
)

// Trajectory reports, for every named algorithm, the per-iteration
// conflict trajectory (|Wnext| after each speculative iteration, read
// from the run's per-iteration statistics) plus the color count before
// and after iterated-greedy recoloring. It is the ablation the paper's
// Table I/Figure 1 argument rests on: the named schedules differ almost
// entirely in how fast the conflict count collapses in iterations 1–2.
func Trajectory(cfg Config) (*Table, error) {
	const iterCols = 4
	ws, err := LoadWorkloads(cfg.scale(), []string{"copapers"})
	if err != nil {
		return nil, err
	}
	w := ws[0]
	t := &Table{
		ID:    "Trajectory",
		Title: "Per-iteration conflict and recoloring trajectories",
		Note: fmt.Sprintf("copapers, threads = %d; |Wk| = queued vertices after iteration k; recolor = colors after ≤3 iterated-greedy passes",
			cfg.maxThreads()),
		Header: []string{"algorithm", "iters", "|W1|", "|W2|", "|W3|", "|W4|", "colors", "recolor"},
	}
	for _, spec := range core.NamedAlgorithms() {
		opts := spec.Opts
		opts.Threads = cfg.maxThreads()
		opts.CollectPerIteration = true
		res, err := core.Color(w.Graph, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: trajectory %s: %w", spec.Name, err)
		}
		if err := verify.BGPC(w.Graph, res.Colors); err != nil {
			return nil, fmt.Errorf("bench: trajectory %s produced an invalid coloring: %w", spec.Name, err)
		}

		row := []string{spec.Name, fmt.Sprintf("%d", res.Iterations)}
		for k := 0; k < iterCols; k++ {
			if k < len(res.Iters) {
				row = append(row, fmt.Sprintf("%d", res.Iters[k].Conflicts))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, fmt.Sprintf("%d", res.NumColors))

		recolored, count, _, err := core.RecolorToConvergence(w.Graph, res.Colors, 3)
		if err != nil {
			return nil, fmt.Errorf("bench: trajectory %s recolor: %w", spec.Name, err)
		}
		if err := verify.BGPC(w.Graph, recolored); err != nil {
			return nil, fmt.Errorf("bench: trajectory %s recolored coloring invalid: %w", spec.Name, err)
		}
		row = append(row, fmt.Sprintf("%d", count))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
