package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bgpc/internal/mtx"
)

// FuzzColorRequest hardens the service request decoder: arbitrary
// bytes must never panic, and any rejection must carry a 4xx status —
// malformed input is never the server's fault. Accepted inline
// matrices are additionally pushed through the MatrixMarket parser
// (the next thing a worker would do with them), which must also not
// panic. Seeds wrap the mtx fuzz corpus in request JSON, plus the
// structured field combinations the validator branches on.
func FuzzColorRequest(f *testing.F) {
	// The mtx parser corpus, wrapped into request bodies.
	mtxSeeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.5\n3 1 -2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0 1\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 7\n",
		"% not a banner\n1 1 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
		"",
	}
	for _, m := range mtxSeeds {
		body, err := json.Marshal(ColorRequest{Matrix: m, Algorithm: "V-V", Threads: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	structured := []ColorRequest{
		{Preset: "channel", Scale: 0.25, Mode: "d2", Algorithm: "N1-N2", Balance: "B2", TimeoutMS: 500},
		{Preset: "nope", Scale: -1, Mode: "d3", Balance: "B9", TimeoutMS: -5},
		{Matrix: "x", Preset: "channel"}, // both set: must be rejected
		{},                               // neither set: must be rejected
		// timeout_ms values whose product with time.Millisecond
		// overflows: they must clamp to MaxTimeout, not wrap.
		{Preset: "channel", TimeoutMS: 9223372036854775807},
		{Preset: "channel", TimeoutMS: 9223372036854776},
	}
	for _, r := range structured {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"matrix": 3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"threads": 1e99, "timeout_ms": 9223372036854775807}`))

	// decodeColorRequest touches only cfg, so a bare Server (no pool
	// goroutines, no listener) drives the full decode+validate path.
	cfg := Config{}
	srv := &Server{cfg: cfg.withDefaults()}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, status, err := srv.decodeColorRequest(raw)
		if err != nil {
			if status < 400 || status > 499 {
				t.Fatalf("rejection with status %d (want 4xx): %v", status, err)
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
		if (spec.matrix == "") == (spec.preset == "") {
			t.Fatalf("accepted spec with matrix=%q preset=%q", spec.matrix, spec.preset)
		}
		if spec.timeout <= 0 || spec.opts.Threads < 1 {
			t.Fatalf("accepted spec with timeout=%v threads=%d", spec.timeout, spec.opts.Threads)
		}
		// An accepted inline matrix heads straight for the parser on a
		// worker; that step must never panic either (errors are fine —
		// they become a 400). Bound the size so the fuzzer doesn't
		// spend its budget parsing megabyte bodies.
		if spec.matrix != "" && len(spec.matrix) < 1<<16 {
			_, _ = mtx.Read(strings.NewReader(spec.matrix))
		}
	})
}

// FuzzDeltaRequest hardens the delta decoder the same way: arbitrary
// fingerprints and bodies must never panic, and every rejection is a
// 4xx. The strict EdgeList decoder is the main target — out-of-range
// ids, wrong-arity pairs, duplicate and self-cancelling edges, numbers
// past int32, and structurally hostile JSON all funnel through it.
func FuzzDeltaRequest(f *testing.F) {
	const goodFP = "0123456789abcdef"
	seeds := []struct {
		fp   string
		body string
	}{
		{goodFP, `{"insert":[[0,3],[7,1]],"remove":[[2,2]]}`},
		{goodFP, `{"insert":[[0,3]],"mode":"d2","timeout_ms":500}`},
		{goodFP, `{"insert":[[0,1],[0,1]]}`},              // duplicate edge
		{goodFP, `{"insert":[[0,1]],"remove":[[0,1]]}`},   // self-cancelling
		{goodFP, `{"insert":[[2147483648,0]]}`},           // past int32
		{goodFP, `{"insert":[[-1,0]]}`},                   // negative id
		{goodFP, `{"insert":[[0,1,2]]}`},                  // wrong arity
		{goodFP, `{"insert":[[0]]}`},                      // wrong arity
		{goodFP, `{"insert":[0,1]}`},                      // not pairs
		{goodFP, `{"insert":[["0","1"]]}`},                // strings
		{goodFP, `{"insert":[[0,1e99]]}`},                 // float overflow
		{goodFP, `{"insert":null,"remove":null}`},         // empty delta
		{goodFP, `{"mode":"d3","insert":[[0,1]]}`},        // bad mode
		{goodFP, `{"timeout_ms":-1,"insert":[[0,1]]}`},    // bad timeout
		{goodFP, `{"insert":` + bigEdgeArray(4096) + `}`}, // large batch
		{"XYZ", `{"insert":[[0,1]]}`},                     // bad fingerprint
		{"0123456789ABCDEF", `{"insert":[[0,1]]}`},        // uppercase hex
		{goodFP + "0", `{"insert":[[0,1]]}`},              // wrong length
		{goodFP, `not json`},
		{goodFP, ``},
		// timeout_ms values whose product with time.Millisecond
		// overflows: they must clamp to MaxTimeout, not wrap.
		{goodFP, `{"timeout_ms":9223372036854775807,"insert":[[0,1]]}`},
		{goodFP, `{"timeout_ms":9223372036854776,"insert":[[0,1]]}`},
	}
	for _, s := range seeds {
		f.Add(s.fp, []byte(s.body))
	}

	cfg := Config{}
	srv := &Server{cfg: cfg.withDefaults()}
	f.Fuzz(func(t *testing.T, fp string, raw []byte) {
		spec, status, err := srv.decodeDeltaRequest(fp, raw)
		if err != nil {
			if status < 400 || status > 499 {
				t.Fatalf("rejection with status %d (want 4xx): %v", status, err)
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
		// Accepted specs must uphold the invariants the worker relies on:
		// a well-formed fingerprint, a non-empty validated delta, and a
		// positive clamped timeout.
		if !validFingerprint(spec.fp) || spec.key != "fp:"+spec.fp {
			t.Fatalf("accepted spec with fingerprint %q key %q", spec.fp, spec.key)
		}
		if spec.d.Empty() {
			t.Fatal("accepted an empty delta")
		}
		if err := spec.d.Validate(); err != nil {
			t.Fatalf("accepted delta fails Validate: %v", err)
		}
		if spec.timeout <= 0 || spec.timeout > srv.cfg.MaxTimeout {
			t.Fatalf("accepted spec with timeout %v", spec.timeout)
		}
		if spec.d2mode != (spec.variant == "delta/d2") {
			t.Fatalf("mode/variant mismatch: d2mode=%v variant=%q", spec.d2mode, spec.variant)
		}
	})
}

// bigEdgeArray renders a JSON array of n [i, i] pairs, a bulk-decode
// seed for the EdgeList cap and loop paths.
func bigEdgeArray(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i, i)
	}
	b.WriteByte(']')
	return b.String()
}
