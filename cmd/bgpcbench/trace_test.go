package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestTraceGoldenSchema runs the Table I experiment with -trace and
// pins the JSON-lines schema against testdata/trace_schema.golden
// (one "field type" pair per line, sorted). Table I's single-pass
// net-based coloring produces conflicts by construction, so at one
// thread the trace deterministically contains conflict events with
// non-zero counts — which this test also asserts, with a positive
// chunk-dispatch count on every event.
func TestTraceGoldenSchema(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-experiment", "table1", "-threads", "1", "-scale", "0.05",
		"-trace", tracePath,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	goldenBytes, err := os.ReadFile(filepath.Join("testdata", "trace_schema.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.TrimSpace(string(goldenBytes))

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var (
		events        int
		colorEvents   int
		conflictHits  int
		sawNetKind    bool
		sawVertexKind bool
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		events++
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("event %d is not valid JSON: %v\n%s", events, err, line)
		}
		if got := schemaOf(m); got != golden {
			t.Fatalf("event %d schema drift:\n got:\n%s\n want:\n%s\n(line: %s)", events, got, golden, line)
		}
		phase := m["phase"].(string)
		switch phase {
		case "color":
			colorEvents++
		case "conflict":
			if m["conflicts"].(float64) > 0 {
				conflictHits++
			}
		default:
			t.Fatalf("event %d: unknown phase %q", events, phase)
		}
		switch kind := m["kind"].(string); kind {
		case "net":
			sawNetKind = true
		case "vertex":
			sawVertexKind = true
		default:
			t.Fatalf("event %d: unknown kind %q", events, kind)
		}
		if iter := m["iter"].(float64); iter < 1 {
			t.Fatalf("event %d: iter %v < 1", events, iter)
		}
		if m["algo"].(string) == "" {
			t.Fatalf("event %d: empty algo label", events)
		}
		if m["dispatches"].(float64) < 1 {
			t.Fatalf("event %d: a phase with items dispatched no chunk (%s)", events, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if events == 0 {
		t.Fatal("trace file is empty")
	}
	if colorEvents == 0 {
		t.Fatal("no coloring-phase events in trace")
	}
	if conflictHits == 0 {
		t.Fatal("no conflict event with conflicts > 0; Table I should guarantee them")
	}
	if !sawNetKind || !sawVertexKind {
		t.Fatalf("expected both net and vertex phase kinds (net=%v, vertex=%v)", sawNetKind, sawVertexKind)
	}
}

// schemaOf renders an event's field names and JSON types in the
// golden-file format: sorted "field type" lines.
func schemaOf(m map[string]any) string {
	lines := make([]string, 0, len(m))
	for k, v := range m {
		typ := "null"
		switch v.(type) {
		case string:
			typ = "string"
		case float64:
			typ = "number"
		case bool:
			typ = "bool"
		}
		lines = append(lines, k+" "+typ)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
