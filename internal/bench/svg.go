package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bgpc/internal/plot"
)

// Figure1SVG renders the Figure 1 table as a grouped bar chart: one
// category per (algorithm, iteration), two series (coloring and
// conflict-removal wall time).
func Figure1SVG(t *Table) (string, error) {
	s, err := series(t, 3, 5)
	if err != nil {
		return "", err
	}
	s[0].Name, s[1].Name = "coloring", "conflict removal"
	categories := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		categories[i] = row[0] + " #" + row[1]
	}
	return plot.GroupedBars(t.ID+": "+t.Title, "milliseconds", categories, s)
}

// Figure2SVG renders the Figure 2 panel of the named workload
// (execution time per algorithm across the thread ladder) from the
// tables Figure2 returned.
func Figure2SVG(tables []*Table, workload string) (string, error) {
	t, err := panel(tables, "Figure 2 ("+workload+")")
	if err != nil {
		return "", err
	}
	// The columns between the algorithm and the trailing model and
	// colors columns are the thread counts' wall times.
	s, err := series(t, 1, len(t.Header)-2)
	if err != nil {
		return "", err
	}
	categories := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		categories[i] = row[0]
	}
	for i := range s {
		s[i].Name = strings.TrimSuffix(s[i].Name, " ms")
	}
	return plot.GroupedBars("Figure 2: "+t.Title, "milliseconds", categories, s)
}

// Figure3SVG renders the Figure 3 panel of the named algorithm from the
// tables Figure3 returned: sorted color-set cardinality curves (log y)
// for its unbalanced and balanced runs, over the rank column. The
// table's zero padding is dropped on the log axis.
func Figure3SVG(tables []*Table, algorithm string) (string, error) {
	t, err := panel(tables, "Figure 3 ("+algorithm+")")
	if err != nil {
		return "", err
	}
	s, err := series(t, 0, len(t.Header))
	if err != nil {
		return "", err
	}
	return plot.Lines(t.ID+": "+t.Title, "color set (sorted by cardinality)", "vertices in set (log scale)",
		s[0].Y, s[1:], true)
}

// panel returns the table of tables with the given ID.
func panel(tables []*Table, id string) (*Table, error) {
	for _, t := range tables {
		if t.ID == id {
			return t, nil
		}
	}
	return nil, fmt.Errorf("bench: no %s table", id)
}

// series parses each of t's columns from..to-1 as a series named by its
// header.
func series(t *Table, from, to int) ([]plot.Series, error) {
	out := make([]plot.Series, 0, to-from)
	for col := from; col < to; col++ {
		s := plot.Series{Name: t.Header[col], Y: make([]float64, len(t.Rows))}
		for i, row := range t.Rows {
			y, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: %s row %d: %w", t.ID, i+1, err)
			}
			s.Y[i] = y
		}
		out = append(out, s)
	}
	return out, nil
}

// WriteArtifacts runs every experiment and writes the complete artifact
// set into dir: aligned-text, CSV, and JSON for each table, plus SVG
// renderings of the three figures drawn from those same tables, which
// double as the accessible data view for the charts.
func WriteArtifacts(cfg Config, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	results := map[string][]*Table{}
	for _, name := range ExperimentNames() {
		tables, err := Run(name, cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		results[name] = tables
		for i, t := range tables {
			base := name
			if len(tables) > 1 {
				base = fmt.Sprintf("%s-%d", name, i+1)
			}
			if err := writeArtifact(dir, base+".txt", func(f *os.File) error { return t.Render(f) }); err != nil {
				return err
			}
			if err := writeArtifact(dir, base+".csv", func(f *os.File) error { return t.CSV(f) }); err != nil {
				return err
			}
			if err := writeArtifact(dir, base+".json", func(f *os.File) error { return t.JSON(f) }); err != nil {
				return err
			}
		}
	}
	figures := map[string]func() (string, error){
		"figure1.svg": func() (string, error) { return Figure1SVG(results["figure1"][0]) },
	}
	for _, wname := range []string{"movielens", "copapers", "channel"} {
		figures["figure2-"+wname+".svg"] = func() (string, error) { return Figure2SVG(results["figure2"], wname) }
	}
	for _, alg := range []string{"V-N2", "N1-N2"} {
		figures["figure3-"+alg+".svg"] = func() (string, error) { return Figure3SVG(results["figure3"], alg) }
	}
	for name, build := range figures {
		svg, err := build()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writeArtifact(dir, name string, write func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
