package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgpc/internal/core"
)

// testCfg is small enough for unit tests on one core.
var testCfg = Config{Scale: 0.04, Threads: []int{2, 4}}

func TestLoadWorkloadsAll(t *testing.T) {
	ws, err := LoadWorkloads(0.04, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("loaded %d workloads, want 8", len(ws))
	}
	sym := 0
	for _, w := range ws {
		if w.Stats.NNZ == 0 {
			t.Fatalf("%s: empty workload", w.Name)
		}
		if w.Symmetric {
			sym++
			if _, err := w.Unipartite(); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		} else if _, err := w.Unipartite(); err == nil {
			t.Fatalf("%s: Unipartite accepted asymmetric workload", w.Name)
		}
	}
	if sym != 5 {
		t.Fatalf("symmetric workloads = %d, want 5", sym)
	}
}

func TestLoadWorkloadsUnknown(t *testing.T) {
	if _, err := LoadWorkloads(0.04, []string{"nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadLazyCaches(t *testing.T) {
	ws, err := LoadWorkloads(0.04, []string{"channel"})
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	a := w.SmallestLast()
	b := w.SmallestLast()
	if &a[0] != &b[0] {
		t.Fatal("SmallestLast not cached")
	}
	g1, _ := w.Unipartite()
	g2, _ := w.Unipartite()
	if g1 != g2 {
		t.Fatal("Unipartite not cached")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("GeoMean = %v", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty GeoMean not NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("negative GeoMean not NaN")
	}
}

func TestRunBGPCAndSpeedups(t *testing.T) {
	ws, err := LoadWorkloads(0.04, []string{"copapers"})
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	seq := RunBGPCSequential(w, nil)
	if seq.TotalWork == 0 || seq.NumColors == 0 {
		t.Fatalf("sequential measurement empty: %+v", seq)
	}
	m, err := RunBGPC(w, "N1-N2", 4, nil, core.BalanceNone, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelSpeedup(seq.TotalWork) <= 0 {
		t.Fatal("non-positive model speedup")
	}
	if len(m.Iters) != m.Iterations {
		t.Fatalf("iters %d records for %d iterations", len(m.Iters), m.Iterations)
	}
	if _, err := RunBGPC(w, "bogus", 2, nil, core.BalanceNone, false); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestTable1ShapeAndOrdering(t *testing.T) {
	// One thread keeps the conflict counts deterministic; at 4 threads
	// scheduling noise can reorder the near-tied variants.
	tbl, err := Table1(Config{Scale: testCfg.Scale, Threads: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		v1 := atoiT(t, row[3])
		rev := atoiT(t, row[4])
		two := atoiT(t, row[5])
		// Paper Table I: Alg 6 ≥ Alg 6+reverse ≥ Alg 8. The effect is
		// strong on the power-law workload; the mesh-like bone010
		// stand-in has small nets where the variants nearly tie, so
		// only the endpoints are asserted there.
		if row[0] == "copapers" && !(two <= rev && rev <= v1) {
			t.Fatalf("%s: ordering violated: %d, %d, %d", row[0], v1, rev, two)
		}
		if float64(two) > 1.1*float64(v1)+10 {
			t.Fatalf("%s: two-pass (%d) clearly worse than Alg 6 (%d)", row[0], two, v1)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	d2Count := 0
	for _, row := range tbl.Rows {
		if row[len(row)-1] == "yes" {
			d2Count++
		}
	}
	if d2Count != 5 {
		t.Fatalf("D2GC-usable workloads = %d, want 5", d2Count)
	}
}

func TestFigure1Shape(t *testing.T) {
	tbl, err := Figure1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]bool{}
	for _, row := range tbl.Rows {
		algs[row[0]] = true
	}
	for _, alg := range figure1Algorithms {
		if !algs[alg] {
			t.Fatalf("missing algorithm %s in Figure 1", alg)
		}
	}
}

func TestSpeedupTableShape(t *testing.T) {
	tbl, err := SpeedupTable(testCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// V-V row: colors ratio exactly 1, over-V-V ratio exactly 1.
	vv := tbl.Rows[0]
	if vv[0] != "V-V" || vv[1] != "1.00" || vv[len(vv)-1] != "1.00" {
		t.Fatalf("V-V row = %v", vv)
	}
	// The net-based schedules must beat V-V in the work model.
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	overVVCol := len(tbl.Header) - 1
	n1n2 := parseF(t, byName["N1-N2"][overVVCol])
	if n1n2 <= 1.0 {
		t.Fatalf("N1-N2 not faster than V-V in the model: %v", n1n2)
	}
}

func TestSpeedupTableSmallestLast(t *testing.T) {
	tbl, err := SpeedupTable(testCfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "Table IV" || len(tbl.Rows) != 8 {
		t.Fatalf("%s rows=%d", tbl.ID, len(tbl.Rows))
	}
}

func TestTable5Shape(t *testing.T) {
	tbl, err := Table5(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "V-V-64D" {
		t.Fatalf("first row = %v", tbl.Rows[0])
	}
	last := tbl.Rows[0][len(tbl.Rows[0])-1]
	if last != "1.00" {
		t.Fatalf("V-V-64D over-64D ratio = %s, want 1.00", last)
	}
}

func TestTable6Shape(t *testing.T) {
	tbl, err := Table6(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Unbalanced rows normalize to exactly 1.00 everywhere.
	for _, i := range []int{0, 3} {
		row := tbl.Rows[i]
		if !strings.HasSuffix(row[0], "-U") {
			t.Fatalf("row %d = %v", i, row)
		}
		for _, cell := range row[1:] {
			if cell != "1.00" {
				t.Fatalf("unbalanced row not normalized: %v", row)
			}
		}
	}
	// B2 rows reduce the std-dev column below 1.
	for _, i := range []int{2, 5} {
		row := tbl.Rows[i]
		if !strings.HasSuffix(row[0], "-B2") {
			t.Fatalf("row %d = %v", i, row)
		}
		if parseF(t, row[5]) >= 1.0 {
			t.Fatalf("B2 std-dev ratio not < 1: %v", row)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	tables, err := Figure3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty series", tbl.ID)
		}
		// Series must be non-increasing in each column.
		for col := 1; col <= 3; col++ {
			prev := math.MaxInt
			for _, row := range tbl.Rows {
				v := atoiT(t, row[col])
				if v > prev {
					t.Fatalf("%s col %d not sorted", tbl.ID, col)
				}
				prev = v
			}
		}
	}
}

func TestRunDispatchesAllNames(t *testing.T) {
	for _, name := range ExperimentNames() {
		if name == "figure2" || name == "table3" || name == "table4" || name == "table5" {
			continue // covered by dedicated tests; skipping keeps this test fast
		}
		tables, err := Run(name, testCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", name)
		}
	}
	if _, err := Run("nope", testCfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFigure2SmallShape(t *testing.T) {
	cfg := Config{Scale: 0.02, Threads: []int{2}}
	tables, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 8 {
			t.Fatalf("%s: %d rows", tbl.ID, len(tbl.Rows))
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo", Note: "n",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "hello, world"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "hello, world") {
		t.Fatalf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"hello, world\"") {
		t.Fatalf("csv output: %s", buf.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 1.0 {
		t.Fatalf("scale = %v", c.scale())
	}
	th := c.threads()
	if len(th) != 4 || th[3] != 16 || c.maxThreads() != 16 {
		t.Fatalf("threads = %v", th)
	}
}

func atoiT(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("atoi(%q): %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse(%q): %v", s, err)
	}
	return v
}

func TestAblationSchedule(t *testing.T) {
	tbl, err := AblationSchedule(Config{Scale: 0.03, Threads: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if parseF(t, row[1]) <= 0 {
			t.Fatalf("non-positive speedup: %v", row)
		}
	}
}

func TestAblationD2Balance(t *testing.T) {
	tbl, err := AblationD2Balance(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, cell := range tbl.Rows[0][1:] {
		if cell != "1.00" {
			t.Fatalf("unbalanced row not normalized: %v", tbl.Rows[0])
		}
	}
}

func TestAblationNetVariants(t *testing.T) {
	tbl, err := AblationNetVariants(Config{Scale: 0.03, Threads: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	var buf bytes.Buffer
	if err := tbl.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string     `json:"id"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "X" || len(decoded.Rows) != 1 || decoded.Rows[0][0] != "1" {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestAblationDistributed(t *testing.T) {
	tbl, err := AblationDistributed(Config{Scale: 0.03, Threads: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFigureSVGs(t *testing.T) {
	cfg := Config{Scale: 0.03, Threads: []int{2, 4}}
	fig1, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svg1, err := Figure1SVG(fig1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg1, "<svg") || !strings.Contains(svg1, "conflict removal") {
		t.Fatal("figure1 svg malformed")
	}
	fig2, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svg2, err := Figure2SVG(fig2, "channel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg2, "N1-N2") {
		t.Fatal("figure2 svg missing algorithms")
	}
	fig3, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svg3, err := Figure3SVG(fig3, "V-N2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg3, "V-N2-B2") {
		t.Fatal("figure3 svg missing balanced series")
	}
	if _, err := Figure2SVG(fig2, "nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Scale: 0.02, Threads: []int{2}}
	if err := WriteArtifacts(cfg, dir); err != nil {
		t.Fatal(err)
	}
	// Every experiment present in all three tabular formats, plus SVGs.
	for _, want := range []string{"table1.txt", "table1.csv", "table1.json",
		"table3.txt", "figure2-1.txt", "figure1.svg", "figure3-N1-N2.svg"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s: %v", want, err)
		}
	}
}

func TestAblationRecoloring(t *testing.T) {
	tbl, err := AblationRecoloring(Config{Scale: 0.03, Threads: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		before := atoiT(t, row[1])
		after := atoiT(t, row[2])
		if after > before {
			t.Fatalf("%s: recoloring increased colors %d -> %d", row[0], before, after)
		}
	}
}
