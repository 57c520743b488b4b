package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink receives trace events. Implementations must be safe for
// concurrent Emit calls: the runner emits from the coordinating
// goroutine, but tests and future pipeline stages may emit from many.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per event, newline-delimited (JSON
// Lines), in Event's documented schema. Safe for concurrent use; the
// first encode error is retained and subsequent events are dropped.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink writing to w. Callers own w's
// lifecycle (buffering, flushing, closing).
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit encodes e as one JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Err returns the first write/encode error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
