package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/graph"
	"bgpc/internal/obs"
	"bgpc/internal/verify"
)

// cacheEntry is one cached graph. The bipartite graph is immutable
// after construction, so entries are shared freely across requests;
// the undirected (D2GC) view is derived lazily once and memoized,
// since symmetry checking and transposition cost a full CSR pass.
//
// The entry also memoizes the graph's fingerprint (hex) — computed once
// at construction instead of per response — and retains the latest
// verified coloring per mode ("bgpc"/"d2"), the warm-start material the
// delta-recoloring path needs. Colorings are copied on store and on
// load: the graph they were verified against is immutable, so a copy
// handed to one request can never be corrupted by another.
type cacheEntry struct {
	key string
	g   *bipartite.Graph
	fp  string // %016x of fpU, the delta-API identity
	fpU uint64 // g.Fingerprint(), the WAL identity

	ugOnce sync.Once
	ug     *graph.Graph
	ugErr  error

	colorMu   sync.Mutex
	colorings map[string][]int32 // mode → verified coloring
}

// newCacheEntry wraps a graph with its memoized fingerprint. All entry
// construction goes through here so fp is never empty. An empty key
// means content-addressed: the key becomes "fp:"+fp, the form
// delta-produced graphs are cached under (their only identity is their
// content — there is no matrix body or preset to key on).
func newCacheEntry(key string, g *bipartite.Graph) *cacheEntry {
	fpU := g.Fingerprint()
	e := &cacheEntry{key: key, g: g, fp: fmt.Sprintf("%016x", fpU), fpU: fpU}
	if key == "" {
		e.key = "fp:" + e.fp
	}
	return e
}

// undirected returns the memoized unipartite view for D2GC jobs.
func (e *cacheEntry) undirected() (*graph.Graph, error) {
	e.ugOnce.Do(func() {
		e.ug, e.ugErr = graph.FromBipartite(e.g)
	})
	return e.ug, e.ugErr
}

// kernelGraph is the graph the coloring kernel runs on: the matrix
// itself, or in d2 mode the closed-neighbourhood view of its undirected
// graph (ParseAlgorithm only yields the two-pass net coloring that view
// needs). The d2 error means the matrix is not structurally symmetric.
func (e *cacheEntry) kernelGraph(d2 bool) (*bipartite.Graph, error) {
	if !d2 {
		return e.g, nil
	}
	ug, err := e.undirected()
	if err != nil {
		return nil, err
	}
	return ug.Closed(), nil
}

// verify checks colors as a BGPC coloring of e.g, or in d2 mode as a
// D2GC coloring of its undirected graph.
func (e *cacheEntry) verify(d2 bool, colors []int32) error {
	if !d2 {
		return verify.BGPC(e.g, colors)
	}
	ug, err := e.undirected()
	if err != nil {
		return err
	}
	return verify.D2GC(ug, colors)
}

// storeColoring retains a copy of a coloring verified against e.g.
// Callers must only pass colorings that passed internal/verify for the
// given mode — the delta path serves them as warm starts.
func (e *cacheEntry) storeColoring(mode string, colors []int32) {
	cp := append([]int32(nil), colors...)
	e.colorMu.Lock()
	if e.colorings == nil {
		e.colorings = make(map[string][]int32, 2)
	}
	e.colorings[mode] = cp
	e.colorMu.Unlock()
}

// coloring returns a private copy of the retained coloring for mode.
func (e *cacheEntry) coloring(mode string) ([]int32, bool) {
	e.colorMu.Lock()
	defer e.colorMu.Unlock()
	c, ok := e.colorings[mode]
	if !ok {
		return nil, false
	}
	return append([]int32(nil), c...), true
}

// graphCache is a bounded LRU keyed by request content hash: repeated
// jobs on the same matrix (the common case for a coloring service —
// the same Jacobian pattern is recolored as an optimization iterates)
// skip MatrixMarket parsing and CSR construction entirely.
type graphCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *cacheEntry
	m   map[string]*list.Element
	// fpm indexes entries by fingerprint hex — the lookup the delta API
	// uses, since clients address deltas by the fingerprint a prior
	// ColorResponse returned. Two keys describing the same incidence
	// structure (an mtx body and an equivalent preset) share a
	// fingerprint; the most recently inserted wins, which is harmless —
	// their graphs are content-identical by construction.
	fpm map[string]*list.Element
}

func newGraphCache(capacity int) *graphCache {
	if capacity <= 0 {
		return nil // disabled
	}
	return &graphCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
		fpm: make(map[string]*list.Element),
	}
}

// get returns the entry for key, refreshing its recency. A nil cache
// always misses.
func (c *graphCache) get(key string) (*cacheEntry, bool) { return c.lookup(false, key) }

// getByFingerprint returns the entry whose graph fingerprints to fp
// (hex), refreshing its recency.
func (c *graphCache) getByFingerprint(fp string) (*cacheEntry, bool) { return c.lookup(true, fp) }

// lookup finds k in the fingerprint index (byFP) or the key index. It
// sits behind the FPCacheGet failpoint: an injected cache fault
// degrades to a miss. A full color then rebuilds the graph, slower but
// correct; a delta 404s, which a router first walks on to the ring
// successors, and only when no visited backend holds the base does the
// client answer it with a full color.
func (c *graphCache) lookup(byFP bool, k string) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	if err := failpoint.Inject(FPCacheGet); err != nil {
		obs.SvcCacheMisses.Inc()
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	index := c.m
	if byFP {
		index = c.fpm
	}
	if el, ok := index[k]; ok {
		c.ll.MoveToFront(el)
		obs.SvcCacheHits.Inc()
		return el.Value.(*cacheEntry), true
	}
	obs.SvcCacheMisses.Inc()
	return nil, false
}

// put inserts (or refreshes) key → g and returns its entry, evicting
// the least recently used entry beyond capacity. With a nil cache it
// just wraps g so callers have a uniform entry type.
func (c *graphCache) put(key string, g *bipartite.Graph) *cacheEntry {
	return c.putEntry(newCacheEntry(key, g))
}

// putEntry is put for an already-constructed entry — the delta path
// builds its entry (mutated graph + memoized undirected view +
// verified coloring) before publication, so the cache must insert it
// as-is rather than wrap the graph again.
func (c *graphCache) putEntry(e *cacheEntry) *cacheEntry {
	if c == nil {
		return e
	}
	if err := failpoint.Inject(FPCachePut); err != nil {
		// Degrade to an uncached entry; the job proceeds with it and
		// the next request for this graph just misses.
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	el := c.ll.PushFront(e)
	c.m[e.key] = el
	c.fpm[e.fp] = el // latest wins on fingerprint collision
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		oldE := old.Value.(*cacheEntry)
		delete(c.m, oldE.key)
		// Only unlink the fingerprint if it still points at the evicted
		// element; a newer same-fingerprint entry must keep its index.
		if cur, ok := c.fpm[oldE.fp]; ok && cur == old {
			delete(c.fpm, oldE.fp)
		}
	}
	return e
}

// len reports the number of cached graphs.
func (c *graphCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheKey returns the graph-cache key a ColorRequest resolves to: the
// content hash of an inline matrix, or name+scale for a preset (with
// resolve's scale-0-means-1 default applied). Exported for the fleet
// router, which consistent-hashes this key so that requests for one
// graph land on the backend that already caches it. Requests resolve
// would reject key to whatever material they carry; the router never
// needs them to match anything.
func CacheKey(req *ColorRequest) string {
	if req.Matrix != "" {
		return matrixKey(req.Matrix)
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1.0
	}
	return presetKey(req.Preset, scale)
}

// matrixKey is the content hash of an inline MatrixMarket body.
func matrixKey(matrix string) string {
	sum := sha256.Sum256([]byte(matrix))
	return "mtx:" + hex.EncodeToString(sum[:])
}

// presetKey identifies a synthetic preset job (generators are
// deterministic, so name+scale is the content).
func presetKey(name string, scale float64) string {
	return fmt.Sprintf("preset:%s:%g", name, scale)
}
