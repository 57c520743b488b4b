package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
)

// memTransport is the fleet's network: an http.RoundTripper that hands
// each router→backend request (health probes included) straight to the
// addressed backend's ServeHTTP. No sockets, no ports, no goroutines of
// its own. In the traced run every call becomes a "service.ServeHTTP"
// span parented under the router span of the same operation.
type memTransport struct {
	backends map[string]http.Handler
	tr       *tracer
	// countAllocs attaches the backend's heap allocations to each span.
	// Only the single-caller replay sets it, where the count is exact.
	countAllocs atomic.Bool
}

func (m *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m.backends[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memTransport: no backend %q", req.URL.Host)
	}
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	in.RequestURI = req.URL.RequestURI()
	sc := spanFrom(req.Context())
	// The allocation count is read outside the span: the read stops
	// the world.
	counting := m.tr.recording() && m.countAllocs.Load()
	var before uint64
	if counting {
		before = mallocs()
	}
	id := m.tr.begin("service.ServeHTTP", sc.parent, sc.op)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	m.tr.end(id, nil)
	if counting {
		m.tr.setAttr(id, "allocs", float64(mallocs()-before))
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
