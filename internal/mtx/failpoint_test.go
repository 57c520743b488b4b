package mtx

import (
	"errors"
	"strings"
	"testing"

	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

const fpTestMtx = `%%MatrixMarket matrix coordinate pattern general
3 3 4
1 1
2 2
3 3
1 3
`

// TestReadEntryFailpoint: an injected fault mid-stream surfaces as a
// format error (the 400-class the service maps parse errors to), at
// the entry the skip filter selects, and reading recovers completely
// once disarmed.
func TestReadEntryFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			failpoint.Reset()
			if err := failpoint.Arm(FPReadEntry, "err@1#2"); err != nil {
				t.Fatal(err)
			}
			_, err := ep.parse(fpTestMtx, limits.DefaultParseLimits())
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("err = %v, want ErrFormat", err)
			}
			if !strings.Contains(err.Error(), "entry 3") {
				t.Fatalf("fault fired at the wrong entry: %v", err)
			}

			failpoint.Reset()
			g, err := ep.parse(fpTestMtx, limits.DefaultParseLimits())
			if err != nil {
				t.Fatalf("disarmed read failed: %v", err)
			}
			if g.NumEdges() != 4 {
				t.Fatalf("edges = %d, want 4", g.NumEdges())
			}
		})
	}
}
