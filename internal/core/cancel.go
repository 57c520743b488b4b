package core

import (
	"errors"
	"fmt"

	"bgpc/internal/bipartite"
)

// ErrCanceled is the sentinel matched by errors.Is when a coloring run
// is stopped by its context before reaching a fixed point. The
// concrete error returned is a *CancelError carrying partial-progress
// statistics; the accompanying Result holds the best valid partial
// state the runner could produce (see ColorCtx).
var ErrCanceled = errors.New("coloring canceled")

// ErrNoFixedPoint is the sentinel matched by errors.Is when
// speculate-and-iterate fails to converge within the runner's
// iteration cap. It signals an algorithm/configuration limit on the
// server side, not a defect in the input graph — callers exposing the
// runners over a request API should map it to an internal error, not
// a client error.
var ErrNoFixedPoint = errors.New("no fixed point")

// CancelError reports a coloring run cut short by context
// cancellation or deadline expiry. It unwraps to both ErrCanceled and
// the context's cause (context.Canceled or context.DeadlineExceeded).
type CancelError struct {
	// Cause is ctx.Err() at the moment the runner observed
	// cancellation.
	Cause error
	// Iteration is the speculative iteration that was in flight
	// (1-based; 0 when canceled before the first iteration started).
	Iteration int
	// Colored and Uncolored count vertices in the repaired partial
	// state returned alongside this error.
	Colored   int
	Uncolored int
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("%v during iteration %d (%d vertices colored, %d not): %v",
		ErrCanceled, e.Iteration, e.Colored, e.Uncolored, e.Cause)
}

// Unwrap exposes both the sentinel and the context cause so callers
// can match either errors.Is(err, ErrCanceled) or
// errors.Is(err, context.DeadlineExceeded).
func (e *CancelError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// cancelResult packages the partial state of an interrupted run: it
// repairs the colors (Repair), fills the Result's color statistics over
// the surviving prefix (counting in f, an idle forbidden set), and
// builds the typed error. The speculative phases may leave any
// interleaving of conflicting colors behind when cut off mid-flight;
// the repair keeps a maximal consistent subset in one O(nnz) sweep.
func cancelResult(g *bipartite.Graph, c *Colors, f *Forbidden, res *Result, cause error) (*Result, error) {
	colored := Repair(g, c.Raw())
	res.Colors = c.Raw()
	res.countColors(f)
	return res, &CancelError{
		Cause:     cause,
		Iteration: res.Iterations,
		Colored:   colored,
		Uncolored: g.NumVertices() - colored,
	}
}
