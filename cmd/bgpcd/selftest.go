package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"bgpc/internal/client"
	"bgpc/internal/delta"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/router"
	"bgpc/internal/service"
	"bgpc/internal/trace"
	"bgpc/internal/verify"
	"bgpc/internal/wal"
)

// selftest boots an in-process daemon on an ephemeral port and drives
// the full resource-governance contract through the real HTTP client:
// liveness, a verified coloring, permanent 413 rejection of an
// oversized job, retryable 429s under budget pressure that the
// client's backoff rides out, an incremental delta-recolor chain
// (mutate by fingerprint, verify, invert, 404 on an unknown base), a
// durability recover-chain (color → delta → restart against the same
// WAL directory → delta off the recovered fingerprint), and a
// trace-assembly check (color through a spawned router under a pinned
// trace id, fetch the merged trace, assert both processes joined one
// acyclic, rooted span tree). It is the
// deploy-time smoke check: `bgpcd -selftest` exits 0 only if the
// daemon and client agree on the whole protocol.
func selftest(ctx context.Context, cfg service.Config, stdout io.Writer) error {
	// The battery needs deterministic admission, so it overrides the
	// sizing knobs; everything else (parse limits, timeouts, cache)
	// is taken from the operator's flags and exercised as configured.
	cfg.Workers = 2
	cfg.QueueDepth = 2
	tiny := "%%MatrixMarket matrix coordinate pattern general\n" +
		"3 4 7\n1 1\n1 2\n1 3\n2 3\n2 4\n3 2\n3 4\n"

	srv := service.New(cfg)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(dctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "selftest: daemon on %s\n", base)

	c := client.New(client.Config{
		BaseURL:     base,
		MaxAttempts: 6,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
	})

	pass := 0
	step := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			fmt.Fprintf(stdout, "selftest: FAIL %s: %v\n", name, err)
			return fmt.Errorf("selftest %s: %w", name, err)
		}
		pass++
		fmt.Fprintf(stdout, "selftest: ok   %s\n", name)
		return nil
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"healthz", func() error {
			return c.Healthz(ctx)
		}},
		{"color-and-verify", func() error {
			resp, err := c.Color(ctx, service.ColorRequest{Matrix: tiny, Algorithm: "N1-N2", Threads: 2})
			if err != nil {
				return err
			}
			g, err := mtx.ParseString(tiny, limits.DefaultParseLimits())
			if err != nil {
				return err
			}
			return verify.BGPC(g, resp.Colors)
		}},
		{"oversized-413", func() error {
			hostile := "%%MatrixMarket matrix coordinate pattern general\n" +
				"2000000 2000000 1000000000000\n"
			_, err := c.Color(ctx, service.ColorRequest{Matrix: hostile})
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("want 413, got %v", err)
			}
			if apiErr.Temporary() {
				return errors.New("413 classified as temporary")
			}
			return nil
		}},
		{"backpressure-retry", func() error {
			// Two injected estimate faults produce real 429s (with
			// Retry-After) that the client must absorb and still land
			// the job.
			if err := failpoint.ArmFromSpec(limits.FPEstimate + "=err@2"); err != nil {
				return err
			}
			defer failpoint.Reset()
			_, err := c.Color(ctx, service.ColorRequest{Matrix: tiny, Algorithm: "V-V"})
			return err
		}},
		{"delta-recolor-chain", func() error {
			// Color, mutate by fingerprint, verify the incremental
			// coloring against the locally mutated graph, then remove
			// the same edge and land back on the original fingerprint —
			// the delta protocol end to end, including the 404 contract
			// for a fingerprint the daemon never saw.
			resp, err := c.Color(ctx, service.ColorRequest{Matrix: tiny, Algorithm: "N1-N2"})
			if err != nil {
				return err
			}
			ins := delta.EdgeList{{Net: 0, Vtx: 3}}
			dresp, err := c.Delta(ctx, resp.Fingerprint, service.DeltaRequest{Insert: ins})
			if err != nil {
				return err
			}
			g, err := mtx.ParseString(tiny, limits.DefaultParseLimits())
			if err != nil {
				return err
			}
			g2, _, _, err := g.ApplyDelta(ins, nil)
			if err != nil {
				return err
			}
			if err := verify.BGPC(g2, dresp.Colors); err != nil {
				return fmt.Errorf("delta coloring invalid: %w", err)
			}
			back, err := c.Delta(ctx, dresp.Fingerprint, service.DeltaRequest{Remove: ins})
			if err != nil {
				return err
			}
			if back.Fingerprint != resp.Fingerprint {
				return fmt.Errorf("inverse delta fingerprint %s, want %s", back.Fingerprint, resp.Fingerprint)
			}
			_, err = c.Delta(ctx, "ffffffffffffffff", service.DeltaRequest{Insert: ins})
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
				return fmt.Errorf("unknown fingerprint: want 404, got %v", err)
			}
			return nil
		}},
		{"recover-chain", func() error {
			// The durability contract through a real restart: color and
			// delta against one daemon incarnation writing a WAL, tear it
			// down, boot a second incarnation on the same data dir, and
			// delta off the recovered fingerprint. The recovered response
			// must extend the chain (no 404, no silent full-recolor
			// fallback to a different base) and verify locally.
			dir, err := os.MkdirTemp("", "bgpcd-selftest-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)

			incarnation := func(fn func(c *client.Client) error) error {
				l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
				if err != nil {
					return err
				}
				defer l.Close()
				wcfg := cfg
				wcfg.WAL = l
				wsrv := service.New(wcfg)
				defer func() {
					dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					wsrv.Drain(dctx)
				}()
				wln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return err
				}
				whttp := &http.Server{Handler: wsrv}
				go whttp.Serve(wln)
				defer whttp.Close()
				return fn(client.New(client.Config{
					BaseURL:     "http://" + wln.Addr().String(),
					MaxAttempts: 4,
					BaseBackoff: 20 * time.Millisecond,
				}))
			}

			ins := delta.EdgeList{{Net: 0, Vtx: 3}}
			ins2 := delta.EdgeList{{Net: 1, Vtx: 0}}
			var tipFP string
			if err := incarnation(func(c *client.Client) error {
				resp, err := c.Color(ctx, service.ColorRequest{Matrix: tiny, Algorithm: "N1-N2"})
				if err != nil {
					return err
				}
				dresp, err := c.Delta(ctx, resp.Fingerprint, service.DeltaRequest{Insert: ins})
				if err != nil {
					return err
				}
				tipFP = dresp.Fingerprint
				return nil
			}); err != nil {
				return fmt.Errorf("first incarnation: %w", err)
			}

			return incarnation(func(c *client.Client) error {
				dresp, err := c.Delta(ctx, tipFP, service.DeltaRequest{Insert: ins2})
				if err != nil {
					return fmt.Errorf("delta off recovered fingerprint %s: %w", tipFP, err)
				}
				if dresp.BaseFingerprint != tipFP {
					return fmt.Errorf("recovered chain base %s, want %s (full-recolor fallback?)",
						dresp.BaseFingerprint, tipFP)
				}
				g, err := mtx.ParseString(tiny, limits.DefaultParseLimits())
				if err != nil {
					return err
				}
				g2, _, _, err := g.ApplyDelta(ins, nil)
				if err != nil {
					return err
				}
				g3, _, _, err := g2.ApplyDelta(ins2, nil)
				if err != nil {
					return err
				}
				if err := verify.BGPC(g3, dresp.Colors); err != nil {
					return fmt.Errorf("recovered-chain coloring invalid: %w", err)
				}
				if dresp.Fingerprint != fmt.Sprintf("%016x", g3.Fingerprint()) {
					return fmt.Errorf("chain tip fingerprint %s does not match local mirror", dresp.Fingerprint)
				}
				return nil
			})
		}},
		{"trace-assembly", func() error {
			// The cross-process tracing contract end to end: spawn a
			// real router fronting this daemon, color through it under a
			// PINNED trace id, then fetch the assembled trace from the
			// router and check both processes joined one tree with
			// correct parentage.
			rt, err := router.New(router.Config{
				Backends: []string{ln.Addr().String()},
				Health:   router.HealthConfig{ProbeInterval: time.Hour},
				Log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				return err
			}
			defer rt.Close()
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			rhttp := &http.Server{Handler: rt}
			go rhttp.Serve(rln)
			defer rhttp.Close()
			rbase := "http://" + rln.Addr().String()

			const tid = "5e1f7e57c0100a11de11ca7ed1a9bdf0"
			body, err := json.Marshal(service.ColorRequest{Matrix: tiny, Algorithm: "V-V"})
			if err != nil {
				return err
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, rbase+"/color", bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("traceparent", trace.Traceparent(tid, "00f067aa0ba902b7"))
			hc := &http.Client{Timeout: 30 * time.Second}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("color through router: status %d", resp.StatusCode)
			}
			if got := resp.Header.Get("X-BGPC-Trace"); got != tid {
				return fmt.Errorf("response trace id %q, want the pinned %s", got, tid)
			}

			tresp, err := hc.Get(rbase + "/rtr/trace/" + tid)
			if err != nil {
				return err
			}
			defer tresp.Body.Close()
			if tresp.StatusCode != http.StatusOK {
				return fmt.Errorf("assembled-trace fetch: status %d", tresp.StatusCode)
			}
			var asm trace.Assembled
			if err := json.NewDecoder(tresp.Body).Decode(&asm); err != nil {
				return err
			}
			// Validate is the parentage gate: unique span ids, acyclic,
			// every chain terminating at a root.
			if err := asm.Validate(); err != nil {
				return err
			}
			if got := len(asm.Processes()); got < 2 {
				return fmt.Errorf("fragments from %v, want both router and daemon", asm.Processes())
			}
			proxies := asm.FindSpans(trace.KindProxy)
			if len(proxies) != 1 {
				return fmt.Errorf("%d proxy hop spans, want 1", len(proxies))
			}
			for _, f := range asm.Fragments {
				if f.Process == "bgpcd" && f.ParentID != proxies[0].ID {
					return fmt.Errorf("daemon fragment parents to %q, want the router hop %s", f.ParentID, proxies[0].ID)
				}
			}
			return nil
		}},
		{"gauges-at-baseline", func() error {
			if got := srv.BytesInFlight(); got != 0 {
				return fmt.Errorf("bytes in flight = %d, want 0", got)
			}
			if d, a := srv.QueueDepth(), srv.ActiveJobs(); d != 0 || a != 0 {
				return fmt.Errorf("queue=%d active=%d, want 0/0", d, a)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "selftest: PASS (%d checks)\n", pass)
	return nil
}
