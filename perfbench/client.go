package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"bgpc/internal/service"
)

// client sends requests straight into an http.Handler — a
// service.Server or a router.Router — in-process. name is the span name
// of a call ("service.ServeHTTP" or "router.ServeHTTP"); st, when set,
// counts every answer.
type client struct {
	h    http.Handler
	name string
	tr   *tracer
	st   *layerStats
}

// reply is the part of ColorResponse and DeltaResponse the benchmark
// reads back.
type reply struct {
	Colors        []int32 `json:"colors"`
	Fingerprint   string  `json:"fingerprint"`
	QueueMS       float64 `json:"queue_ms"`
	CacheHit      bool    `json:"cache_hit"`
	Dirty         int     `json:"dirty"`
	TotalVertices int     `json:"total_vertices"`
}

// call is one answered request.
type call struct {
	status int
	rep    reply
	body   []byte
	end    time.Time
	// span is the id of the request's span (-1 untraced).
	span int32
}

func (c *client) post(op int64, path string, body []byte) call {
	id := c.tr.begin(c.name, -1, op)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if id >= 0 {
		req = req.WithContext(withSpan(context.Background(), op, id))
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	out := call{status: rec.Code, body: rec.Body.Bytes(), end: time.Now(), span: id}
	if id >= 0 {
		c.tr.end(id, map[string]float64{"status": float64(rec.Code)})
	}
	if out.status == http.StatusOK {
		if err := json.Unmarshal(out.body, &out.rep); err != nil {
			out.status = 0
			out.body = []byte(err.Error())
		}
	}
	if c.st != nil {
		c.st.observe(strings.HasSuffix(path, "/delta"), out)
	}
	return out
}

// judge turns an answered request into an outcome, checking any
// returned coloring against ref.
func judge(cl call, ref *refGraph) outcome {
	o := outcome{end: cl.end}
	switch {
	case cl.status == http.StatusOK:
		used, err := ref.check(cl.rep.Colors)
		if err != nil {
			o.invalid = true
			o.errMsg = err.Error()
			return o
		}
		o.ok = true
		o.colorsRatio = float64(used) / float64(ref.lowerBound())
	default:
		o.errMsg = fmt.Sprintf("status %d: %s", cl.status, bytes.TrimSpace(cl.body))
	}
	return o
}

// layerStats counts request-level facts that feed per-layer metrics:
// cache use, admission, delta ownership and delta dirty sets.
type layerStats struct {
	colorReqs, cacheHits   atomic.Int64
	requests, rejected     atomic.Int64
	deltas, deltaOwnerHits atomic.Int64
	dirtyPPM, dirtyN       atomic.Int64
	queueNS, queueN        atomic.Int64
}

func (s *layerStats) observe(isDelta bool, cl call) {
	s.requests.Add(1)
	if cl.status == http.StatusTooManyRequests || cl.status == http.StatusServiceUnavailable {
		s.rejected.Add(1)
	}
	if cl.status == http.StatusOK {
		s.queueNS.Add(int64(cl.rep.QueueMS * 1e6))
		s.queueN.Add(1)
	}
	if !isDelta {
		s.colorReqs.Add(1)
		if cl.rep.CacheHit {
			s.cacheHits.Add(1)
		}
		return
	}
	s.deltas.Add(1)
	if cl.status != http.StatusNotFound {
		s.deltaOwnerHits.Add(1)
	}
	if cl.status == http.StatusOK && cl.rep.TotalVertices > 0 {
		s.dirtyPPM.Add(int64(1e6 * float64(cl.rep.Dirty) / float64(cl.rep.TotalVertices)))
		s.dirtyN.Add(1)
	}
}

// colorBody is a POST /color body for an inline document.
func colorBody(doc string, threads int) []byte {
	b, err := json.Marshal(service.ColorRequest{Matrix: doc, Algorithm: "N1-N2", Threads: threads, TimeoutMS: 10000})
	if err != nil {
		panic(err)
	}
	return b
}

func presetBody(name string, scale float64, threads int) []byte {
	b, err := json.Marshal(service.ColorRequest{Preset: name, Scale: scale, Algorithm: "N1-N2", Threads: threads, TimeoutMS: 10000})
	if err != nil {
		panic(err)
	}
	return b
}
