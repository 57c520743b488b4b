package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bgpc/internal/obs"
)

// outcome is what one operation returned, after the benchmark checked
// it against its own copy of the graph.
type outcome struct {
	// end is when the response arrived; verification happens after it
	// and is not part of the operation's latency.
	end time.Time
	// ok means a coloring came back and verified.
	ok bool
	// invalid means a coloring came back and did not verify.
	invalid bool
	// colorsRatio is colors used over the Lemma 1 lower bound (ok only).
	colorsRatio float64
	// errMsg describes a failure.
	errMsg string
	// class is the operation's kind (a batch-kernel job, a cache miss
	// or hit, a fleet request kind); latency quantiles are taken per
	// class.
	class int
}

// phase collects the operations of one measured phase.
type phase struct {
	mu  sync.Mutex
	lat []time.Duration
	// class is each latency sample's outcome.class.
	class       []int
	lag         []time.Duration
	attempted   int64
	failed      int64
	invalid     int64
	sloOK       int64
	colorsSum   float64
	colorsN     int64
	firstErrMsg string
	wall        time.Duration
	mallocs     uint64
	allocBytes  uint64
	// heap is the live heap in bytes, sampled at a fixed interval.
	heap []float64
	// walAppends is the records the program's write-ahead logs accepted
	// during the phase.
	walAppends int64
}

// highHeap is the live heap the phase stays under for 90 % of its time,
// in bytes: the samples are evenly spaced, so a quantile of them is a
// share of the time. The single highest sample depends on whether a
// collection happened to run inside a burst of short-lived data (on
// fleet-delta, a write-ahead log compaction) and moved by 15 % between
// runs of the same code; this quantile moved by about 1 %.
func (p *phase) highHeap() float64 {
	return quantile(sortedCopy(p.heap), 0.9)
}

func (p *phase) addLag(d time.Duration) {
	p.mu.Lock()
	p.lag = append(p.lag, d)
	p.mu.Unlock()
}

// record adds one request: lat is its latency, slo the workload's limit.
func (p *phase) record(lat time.Duration, o outcome, slo time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.lat = append(p.lat, lat)
	p.class = append(p.class, o.class)
	if o.invalid {
		p.invalid++
	}
	if !o.ok {
		p.failed++
		if p.firstErrMsg == "" {
			p.firstErrMsg = o.errMsg
		}
	} else {
		p.colorsSum += o.colorsRatio
		p.colorsN++
		if lat <= slo {
			p.sloOK++
		}
	}
}

// window measures wall time, heap allocations, write-ahead log appends
// and the live heap over a phase. The live heap is what the last garbage
// collection marked reachable (unlike the in-use heap it does not depend
// on when the collector happened to run); it is sampled every 5 ms.
type window struct {
	start time.Time
	ms0   runtime.MemStats
	wal0  int64
	stop  chan struct{}
	done  chan []float64
}

func openWindow() *window {
	w := &window{start: time.Now(), stop: make(chan struct{}), done: make(chan []float64)}
	runtime.ReadMemStats(&w.ms0)
	w.wal0 = obs.WalAppends.Load()
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var out []float64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			out = append(out, float64(s[0].Value.Uint64()))
			select {
			case <-w.stop:
				w.done <- out
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *window) close(p *phase) {
	p.wall = time.Since(w.start)
	p.walAppends = obs.WalAppends.Load() - w.wal0
	close(w.stop)
	p.heap = <-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - w.ms0.Mallocs
	p.allocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
}

// opFunc runs operation i (an index that keeps increasing across a
// run's phases, so it also names the operation in span files) and
// records each request it sends into p, timed from the request's own
// start.
type opFunc func(i int64, p *phase)

// closedLoop runs callers goroutines back to back until d has passed,
// then finishes the current unit: a caller stops only before an
// operation index that is a multiple of unit. Indices are drawn from
// seq. The gap between one caller's operations is kept as harness lag.
func closedLoop(callers, unit int, d time.Duration, seq *atomic.Int64, op opFunc) *phase {
	p := &phase{}
	w := openWindow()
	deadline := w.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevEnd time.Time
			for {
				start := time.Now()
				if seq.Load()%int64(unit) == 0 && !start.Before(deadline) {
					return
				}
				if !prevEnd.IsZero() {
					p.addLag(start.Sub(prevEnd))
				}
				op(seq.Add(1)-1, p)
				prevEnd = time.Now()
			}
		}()
	}
	wg.Wait()
	w.close(p)
	return p
}

// openLoop issues operation i at due time arrivals[i] after the phase
// starts, from at most senders goroutines. Requests are timed from when
// they are sent: the server's own queue shows in their latency, while
// the generator's lateness against the schedule — its sleep overshoot,
// or every sender still busy — is kept apart as scheduling lag. Latency
// from the due time would fold the harness's sender limit into the
// server's latency and, on a small host, amplify any slowdown through
// that queue.
func openLoop(senders int, arrivals []time.Duration, seq *atomic.Int64, op opFunc) *phase {
	p := &phase{}
	var next atomic.Int64
	w := openWindow()
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= len(arrivals) {
					return
				}
				due := w.start.Add(arrivals[i])
				time.Sleep(time.Until(due))
				p.addLag(time.Since(due))
				op(seq.Add(1)-1, p)
			}
		}()
	}
	wg.Wait()
	w.close(p)
	return p
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile[T int64 | float64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy[T int64 | float64 | time.Duration](xs []T) []T {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// tailQuantile picks the tail percentile a sample can support: p99 when
// at least 10 samples lie beyond it, otherwise the highest quantile
// that still has 10 beyond it (the median at the very least).
func tailQuantile(n int) float64 {
	if n == 0 {
		return 0.99
	}
	q := 1 - 10/float64(n)
	return min(0.99, max(0.5, math.Floor(q*1000)/1000))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// throughput is the successful operations per second over the phase.
func (p *phase) throughput() float64 {
	return float64(p.attempted-p.failed) / p.wall.Seconds()
}

// byClass groups the latency samples by operation class.
func (p *phase) byClass() map[int][]time.Duration {
	by := map[int][]time.Duration{}
	for i, l := range p.lat {
		by[p.class[i]] = append(by[p.class[i]], l)
	}
	return by
}

// classQuantile is the geometric mean over operation classes (jobs,
// request kinds) of each class's q-quantile latency. It moves in
// proportion when any class gets slower, where a quantile of the pooled
// samples sits on a boundary between classes of unequal cost and jumps
// between them from run to run.
func (p *phase) classQuantile(q float64) time.Duration {
	by := p.byClass()
	var logSum float64
	for _, ls := range by {
		logSum += math.Log(float64(quantile(sortedCopy(ls), q)))
	}
	return time.Duration(math.Exp(logSum / float64(len(by))))
}
