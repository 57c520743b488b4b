package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"time"

	"bgpc/internal/bipartite"
)

// newRand returns the generator for one named input stream of a seed.
// Streams are independent, so adding a stream never shifts another.
func newRand(seed uint64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(stream))
	return rand.New(rand.NewPCG(seed, binary.LittleEndian.Uint64(h[:8])))
}

// digest accumulates every generated input — documents, request bodies,
// edge lists and arrival times — so a run can print one fingerprint of
// its input set: the same seed gives the same digest.
type digest struct{ h hash.Hash }

func newDigest(workload string, seed uint64) *digest {
	d := &digest{h: sha256.New()}
	d.str(workload)
	d.int(int64(seed))
	return d
}

func (d *digest) str(s string)   { d.int(int64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) bytes(b []byte) { d.int(int64(len(b))); d.h.Write(b) }
func (d *digest) int(v int64)    { d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
func (d *digest) sum() string    { return hex.EncodeToString(d.h.Sum(nil))[:16] }
func (d *digest) schedule(a []time.Duration) {
	d.int(int64(len(a)))
	for _, t := range a {
		d.int(int64(t))
	}
}

// randomSymmetric draws a square, structurally symmetric pattern with a
// full diagonal and about 2·offDiag off-diagonal entries per row — the
// shape of the paper's D2GC inputs, so one document serves both modes.
func randomSymmetric(r *rand.Rand, n, offDiag int) *refGraph {
	keys := make([]edgeKey, 0, n*(2*offDiag+1))
	for i := int32(0); int(i) < n; i++ {
		keys = append(keys, keyOf(i, i))
		for k := 0; k < offDiag; k++ {
			j := int32(r.IntN(n))
			keys = append(keys, keyOf(i, j), keyOf(j, i))
		}
	}
	return newRefGraph(n, n, sortedKeys(keys))
}

// randomDelta draws nIns absent edges to insert and nRem present edges
// to remove. The two lists are disjoint by construction.
func randomDelta(r *rand.Rand, g *refGraph, nIns, nRem int) (ins, rem []bipartite.Edge) {
	picked := map[edgeKey]bool{}
	for tries := 0; len(ins) < nIns && tries < 50*nIns; tries++ {
		net, vtx := int32(r.IntN(g.nNet)), int32(r.IntN(g.nVtx))
		if g.has(net, vtx) || picked[keyOf(net, vtx)] {
			continue
		}
		picked[keyOf(net, vtx)] = true
		ins = append(ins, bipartite.Edge{Net: net, Vtx: vtx})
	}
	keys := g.keys()
	for tries := 0; len(rem) < nRem && tries < 50*nRem; tries++ {
		k := keys[r.IntN(len(keys))]
		if picked[k] {
			continue
		}
		picked[k] = true
		net, vtx := unkey(k)
		rem = append(rem, bipartite.Edge{Net: net, Vtx: vtx})
	}
	return ins, rem
}

// poissonArrivals returns the due times of a Poisson process at rate
// per second over d, measured from the start of the open-loop phase.
func poissonArrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
