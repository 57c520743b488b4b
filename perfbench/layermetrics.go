package main

import (
	"slices"
	"time"
)

// layerMetrics derives every per-layer metric from a traced run's spans
// (traffic and replay alike), the request-level counters and the load
// generator's lag.
func layerMetrics(spans []span, st *layerStats, lag []time.Duration) map[string]float64 {
	by := map[string][]span{}
	children := map[int32][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// nsPerNNZ is total time over total nonzeros.
	nsPerNNZ := func(name string) float64 {
		var ns, nnz float64
		for _, s := range by[name] {
			ns += float64(s.End - s.Start)
			nnz += s.Attrs["nnz"]
		}
		return ns / max(nnz, 1)
	}
	// attrs lists one attribute over the spans that carry it.
	attrs := func(name, key string) []float64 {
		var out []float64
		for _, s := range by[name] {
			if v, ok := s.Attrs[key]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	durs := func(names ...string) []float64 {
		var out []float64
		for _, n := range names {
			for _, s := range by[n] {
				out = append(out, us(s.dur()))
			}
		}
		return out
	}

	m := map[string]float64{}
	m["core.ns_per_nnz"] = nsPerNNZ("core.ColorCtx")
	m["core.color_phase_ms"] = mean(attrs("core.ColorCtx", "color_ms"))
	m["core.conflict_phase_ms"] = mean(attrs("core.ColorCtx", "conflict_ms"))
	m["core.allocs_per_call"] = med(attrs("core.ColorCtx", "allocs"))
	m["core.iterations"] = mean(attrs("core.ColorCtx", "iterations"))
	m["core.first_iter_conflict_ratio"] = mean(attrs("core.ColorCtx", "first_conflict_ratio"))
	m["core.work_speedup"] = mean(attrs("core.ColorCtx", "work_speedup"))
	m["core.wall_speedup"] = nsPerNNZ("core.Sequential") / max(m["core.ns_per_nnz"], 1e-9)
	var perCall []float64
	for _, s := range by["par.For"] {
		perCall = append(perCall, float64(s.End-s.Start)/s.Attrs["calls"])
	}
	m["par.for_overhead_ns"] = med(perCall)
	m["d2.ns_per_nnz"] = nsPerNNZ("d2.ColorCtx")
	m["d2.iterations"] = mean(attrs("d2.ColorCtx", "iterations"))
	m["d2.allocs_per_call"] = med(attrs("d2.ColorCtx", "allocs"))
	m["verify.ns_per_nnz"] = nsPerNNZ("verify.BGPC")
	m["mtx.parse_ns_per_nnz"] = nsPerNNZ("mtx.ReadLimited")
	m["bipartite.build_ns_per_nnz"] = nsPerNNZ("bipartite.FromEdges")
	m["bipartite.fingerprint_ns_per_nnz"] = nsPerNNZ("bipartite.Fingerprint")

	m["service.handler_p50_us"] = med(durs("service.ServeHTTP"))
	m["service.self_us"] = med(attrs("service.ServeHTTP", "self_us"))
	m["service.allocs_per_req"] = med(attrs("service.ServeHTTP", "allocs"))
	m["service.queue_wait_ms"] = float64(st.queueNS.Load()) / 1e6 / float64(max(st.queueN.Load(), 1))
	m["service.cache_hit_ratio"] = ratio(st.cacheHits.Load(), st.colorReqs.Load())
	m["service.admitted_ratio"] = 1 - ratio(st.rejected.Load(), st.requests.Load())

	m["delta.apply_us"] = med(durs("delta.Apply"))
	// Replayed and served deltas together.
	dirty := attrs("delta.RecolorBGPC", "dirty_ratio")
	m["delta.dirty_ratio"] = (mean(dirty)*float64(len(dirty)) + float64(st.dirtyPPM.Load())/1e6) /
		float64(max(int64(len(dirty))+st.dirtyN.Load(), 1))
	m["delta.recolor_us"] = med(durs("delta.RecolorBGPC"))
	appends := sortedCopy(durs("wal.AppendFull", "wal.AppendDelta"))
	m["wal.append_us_p50"] = quantile(appends, 0.5)
	m["wal.append_us_p99"] = quantile(appends, 0.99)
	m["wal.bytes_per_append"] = mean(append(attrs("wal.AppendFull", "bytes"), attrs("wal.AppendDelta", "bytes")...))

	var overhead []float64
	var routed, firstTry int64
	for _, s := range by["router.ServeHTTP"] {
		var backend time.Duration
		hops := 0
		for _, c := range children[s.ID] {
			if c.Name == "service.ServeHTTP" {
				backend += c.dur()
				hops++
			}
		}
		if hops == 0 {
			continue
		}
		overhead = append(overhead, us(s.dur()-backend))
		routed++
		if hops == 1 {
			firstTry++
		}
	}
	m["router.proxy_overhead_us"] = med(overhead)
	m["router.delta_owner_hit_ratio"] = ratio(st.deltaOwnerHits.Load(), st.deltas.Load())
	m["router.first_try_ratio"] = ratio(firstTry, routed)

	var lagMS []float64
	for _, d := range lag {
		lagMS = append(lagMS, ms(d))
	}
	m["harness.sched_lag_ms"] = med(lagMS)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
