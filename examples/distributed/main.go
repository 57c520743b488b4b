// Distributed-memory speculative coloring — the framework lineage —
// and the deployment shape that replaces it: a router-fronted fleet
// of shared-memory daemons.
//
// Before the paper's shared-memory algorithms, the speculative
// color-exchange-repair loop was developed for distributed-memory
// machines (Bozdağ, Çatalyürek, Gebremedhin, Manne et al.). This demo
// runs the library's BSP simulation of that framework on a power-law
// matrix at several rank counts and contrasts the boundary
// communication it needs with the zero-communication shared-memory
// run — the overhead the paper's algorithms eliminate by sharing one
// color array.
//
// The second half is the modern answer to "but one machine isn't
// enough": instead of partitioning ONE graph across ranks (and paying
// the boundary exchange), run many whole-graph jobs across a FLEET of
// shared-memory daemons behind a fingerprint router. The router
// consistent-hashes each graph to a backend (cache affinity), watches
// backend health with passive signals plus active probes, collapses
// identical concurrent jobs into one execution, and — demonstrated
// live — survives a backend being killed mid-workload by failing the
// dead owner's graphs over to its ring successor, then re-homes them
// when the backend returns.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bgpc"
	"bgpc/internal/client"
	"bgpc/internal/router"
	"bgpc/internal/service"
)

func main() {
	g, err := bgpc.Preset("copapers", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	s := g.ComputeStats()
	fmt.Printf("matrix: %d×%d, %d nnz, color lower bound %d\n\n",
		s.Rows, s.Cols, s.NNZ, g.ColorLowerBound())

	fmt.Println("ranks  supersteps  messages  boundary values  colors")
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		colors, stats, err := bgpc.ColorDistributed(g, ranks)
		if err != nil {
			log.Fatal(err)
		}
		if err := bgpc.VerifyBGPC(g, colors); err != nil {
			log.Fatal(err)
		}
		cs := bgpc.Stats(colors)
		fmt.Printf("%5d  %10d  %8d  %15d  %6d\n",
			ranks, stats.Supersteps, stats.Messages, stats.Values, cs.NumColors)
	}

	// The shared-memory algorithm the paper proposes: one color array,
	// no messages at all.
	opts, err := bgpc.Algorithm("N1-N2")
	if err != nil {
		log.Fatal(err)
	}
	opts.Threads = 16
	res, err := bgpc.Color(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := bgpc.VerifyBGPC(g, res.Colors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared-memory N1-N2 (16 threads): %d colors, %d iterations, 0 messages\n",
		res.NumColors, res.Iterations)
	fmt.Println("the boundary exchange above is exactly the overhead the paper's")
	fmt.Println("shared-memory reformulation removes")

	if err := fleetDemo(); err != nil {
		log.Fatal(err)
	}
}

// daemon is one fleet member the demo can kill and resurrect.
type daemon struct {
	addr string
	svc  *service.Server
	srv  *http.Server
}

func startDaemon(addr string) (*daemon, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for d := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(d) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64})
	srv := &http.Server{Handler: svc}
	go srv.Serve(ln)
	return &daemon{addr: ln.Addr().String(), svc: svc, srv: srv}, nil
}

// kill tears the daemon down abruptly — listener and live connections
// included, the in-process stand-in for kill -9.
func (d *daemon) kill() {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.svc.Drain(ctx)
}

// fleetDemo is the deployment-shape half: three daemons behind a
// fingerprint router, a workload with per-graph affinity, one backend
// killed and restarted mid-run.
func fleetDemo() error {
	fmt.Println("\n--- fleet mode: three daemons behind a fingerprint router ---")

	var fleet []*daemon
	var addrs []string
	for i := 0; i < 3; i++ {
		d, err := startDaemon("")
		if err != nil {
			return err
		}
		defer d.kill()
		fleet = append(fleet, d)
		addrs = append(addrs, d.addr)
	}

	rt, err := router.New(router.Config{
		Backends: addrs,
		Health: router.HealthConfig{
			FailAfter:     2,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			RecoverProbes: 2,
		},
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: rt}
	go front.Serve(ln)
	defer front.Close()
	frontURL := "http://" + ln.Addr().String()
	fmt.Printf("router on %s, backends %v\n", ln.Addr(), addrs)

	// Affinity: each preset graph hashes to one backend, so repeat jobs
	// hit that backend's warm graph cache.
	jobs := []service.ColorRequest{
		{Preset: "channel", Scale: 0.1, Algorithm: "N1-N2", Threads: 2},
		{Preset: "movielens", Scale: 0.1, Algorithm: "N1-N2", Threads: 2},
		{Preset: "copapers", Scale: 0.1, Algorithm: "V-V-64", Threads: 2},
	}
	cli := client.New(client.Config{BaseURL: frontURL, MaxAttempts: 4, BaseBackoff: 25 * time.Millisecond})
	homes := map[string]string{}
	for _, req := range jobs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, ri, err := cli.ColorRouted(ctx, req)
		cancel()
		if err != nil {
			return fmt.Errorf("warmup %s: %w", req.Preset, err)
		}
		homes[req.Preset] = ri.Backend
		fmt.Printf("  %-10s → backend %s\n", req.Preset, ri.Backend)
	}

	// Kill the backend that owns "channel", keep the workload running,
	// and watch the router eject it and re-home its graphs.
	victimAddr := homes["channel"]
	var victim *daemon
	for _, d := range fleet {
		if d.addr == victimAddr {
			victim = d
		}
	}
	fmt.Printf("\nkilling backend %s (owner of \"channel\") mid-workload…\n", victimAddr)

	var okN, reroutedN, failedN atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, ri, err := cli.ColorRouted(ctx, jobs[(w+i)%len(jobs)])
				cancel()
				switch {
				case err != nil:
					failedN.Add(1)
				case ri.Rerouted || ri.Spilled:
					reroutedN.Add(1)
				default:
					okN.Add(1)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond)
	victim.kill()

	// Wait for ejection, then show where "channel" lives now.
	if err := waitState(rt, victimAddr, router.StateEjected, 5*time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_, ri, err := cli.ColorRouted(ctx, jobs[0])
	cancel()
	if err != nil {
		return fmt.Errorf("post-kill channel job: %w", err)
	}
	fmt.Printf("backend ejected; \"channel\" re-homed to ring successor %s\n", ri.Backend)

	// Resurrect it on the same port and watch ownership come back.
	if revived, err := startDaemon(victimAddr); err != nil {
		return fmt.Errorf("restart: %w", err)
	} else {
		defer revived.kill()
	}
	if err := waitState(rt, victimAddr, router.StateHealthy, 5*time.Second); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, ri, err = cli.ColorRouted(ctx, jobs[0])
		cancel()
		if err == nil && ri.Backend == victimAddr {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ownership of \"channel\" never returned to %s", victimAddr)
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("backend recovered; \"channel\" re-homed back to %s\n", victimAddr)

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	fmt.Printf("\nworkload through the outage: %d clean, %d rerouted, %d failed\n",
		okN.Load(), reroutedN.Load(), failedN.Load())
	if failedN.Load() > 0 {
		return fmt.Errorf("fleet demo: %d jobs failed — failover should have absorbed the kill", failedN.Load())
	}
	fmt.Println("a dead backend cost zero failed jobs: its graphs failed over to the")
	fmt.Println("ring successor and moved back after recovery — placement, health, and")
	fmt.Println("failover are the router's job, not the client's")
	return nil
}

func waitState(rt *router.Router, addr string, want router.BackendState, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		if s, ok := rt.BackendState(addr); ok && s == want {
			return nil
		}
		if time.Now().After(deadline) {
			s, _ := rt.BackendState(addr)
			return fmt.Errorf("backend %s state %v, want %v within %s", addr, s, want, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
