package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"bgpc/internal/bipartite"
	"bgpc/internal/par"
	"bgpc/internal/rng"
)

// writeSpan is a byte range that one thread writes in a parallel phase.
type writeSpan struct {
	what   string
	tid    int
	lo, hi uintptr
}

func fieldSpan[T any](what string, tid int, p *T) writeSpan {
	lo := uintptr(unsafe.Pointer(p))
	return writeSpan{what, tid, lo, lo + unsafe.Sizeof(*p)}
}

func arraySpan[T any](what string, tid int, s []T) writeSpan {
	if len(s) == 0 {
		return writeSpan{what: what, tid: tid}
	}
	lo := uintptr(unsafe.Pointer(&s[0]))
	return writeSpan{what, tid, lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

// sharedLine reports two spans of different threads that touch one
// cache line.
func sharedLine(spans []writeSpan) error {
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.tid == b.tid || a.lo == a.hi || b.lo == b.hi {
				continue
			}
			if a.lo/cacheLine <= (b.hi-1)/cacheLine && b.lo/cacheLine <= (a.hi-1)/cacheLine {
				return fmt.Errorf("thread %d's %s [%#x, %#x) and thread %d's %s [%#x, %#x) share a %d-byte line",
					a.tid, a.what, a.lo, a.hi, b.tid, b.what, b.lo, b.hi, cacheLine)
			}
		}
	}
	return nil
}

// TestPerThreadLayout builds the per-thread state of a 4-thread run,
// the scratch blocks (after a two-pass net coloring has allocated their
// worklists), the pooled masks' row buffers and par.LocalQueues, on a
// graph whose mark arrays hold fewer than 64 slots, and checks it again
// after every Forbidden has grown. No two threads' written ranges may
// share a cache line: the Forbidden, worklist, Policy, row buffer and
// queue headers, the used part of each mark array and the part of each
// worklist and row buffer a phase can fill.
func TestPerThreadLayout(t *testing.T) {
	const threads, numVtx = 4, 40
	r := rng.New(5)
	all := make([]int32, numVtx)
	for i := range all {
		all[i] = int32(i)
	}
	nets := [][]int32{all}
	for _, size := range []int{32, 34, 36, 3, 3, 5, 8} {
		nets = append(nets, r.Perm(numVtx)[:size])
	}
	g, err := bipartite.FromNetLists(numVtx, nets)
	if err != nil {
		t.Fatal(err)
	}
	lb := g.ColorLowerBound()
	scr := newScratch(g, threads, BalanceNone)
	opts := Options{Threads: threads}
	colorNetPhase(g, NewColors(numVtx), scr, &opts, NewWorkCounters(threads), nil)
	if n := len(scr[0].forb.mark); n >= 64 {
		t.Fatalf("marks hold %d slots, want fewer than 64", n)
	}
	m := acquireMasks(g, threads)
	if m == nil {
		t.Fatal("no masks")
	}
	defer m.release()
	l := par.NewLocalQueues(threads, numVtx)

	check := func(when string) {
		var spans []writeSpan
		for tid := range scr {
			ts, rb := &scr[tid], &m.big[tid]
			spans = append(spans,
				fieldSpan("Forbidden", tid, &ts.forb),
				fieldSpan("worklist header", tid, &ts.wl),
				fieldSpan("Policy", tid, &ts.pol),
				arraySpan("marks", tid, ts.forb.mark),
				arraySpan("worklist", tid, ts.wl[:lb]),
				fieldSpan("row buffer header", tid, &rb.rows),
				arraySpan("row buffer", tid, rb.rows[:len(m.nets)]))
		}
		// The queue headers are par's own; reflect finds them.
		qs := reflect.ValueOf(l).Elem().Field(0)
		for tid := 0; tid < qs.Len(); tid++ {
			h := qs.Index(tid)
			if h.Kind() == reflect.Struct {
				h = h.Field(0)
			}
			lo := h.UnsafeAddr()
			spans = append(spans, writeSpan{"queue header", tid, lo, lo + h.Type().Size()})
		}
		if err := sharedLine(spans); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	check("as built")
	for tid := range scr {
		f := &scr[tid].forb
		f.Add(int32(len(f.mark)))
	}
	check("after Forbidden.grow")
}
