package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the package's Prometheus text-exposition surface
// (format v0.0.4): every counter, registered gauge, and histogram
// family is written with HELP/TYPE lines in stable sorted order, so a
// scrape diff is a metrics diff and the golden test can pin the shape.

// gaugeFunc is one registered live reading.
type gaugeFunc struct {
	help string
	fn   func() int64
}

var (
	gaugeMu sync.RWMutex
	gauges  = map[string]gaugeFunc{}
)

// RegisterGauge registers (or replaces) a named live gauge for the
// Prometheus exposition (WritePrometheus). Names follow the counters' "bgpc.xyz" convention.
// Replacement semantics — last registration wins — let tests and
// multi-server processes re-register without ceremony; the serving
// layer registers queue depth, active jobs, bytes in flight, and
// memory budget here so one scrape carries both "how many ever" and
// "how many right now".
func RegisterGauge(name, help string, fn func() int64) {
	gaugeMu.Lock()
	gauges[name] = gaugeFunc{help: help, fn: fn}
	gaugeMu.Unlock()
}

// GaugeSnapshot returns the current value of every registered gauge
// keyed by name.
func GaugeSnapshot() map[string]int64 {
	gaugeMu.RLock()
	defer gaugeMu.RUnlock()
	out := make(map[string]int64, len(gauges))
	for name, g := range gauges {
		out[name] = g.fn()
	}
	return out
}

// promName maps a counter or gauge name ("bgpc.svc_accepted") to a
// Prometheus metric name ("bgpc_svc_accepted").
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects, with +Inf
// spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the full metrics surface — monotonic counters
// (as `_total` series), registered live gauges, and every histogram
// family (`_bucket`/`_sum`/`_count` with `le` labels) — in Prometheus
// text exposition format v0.0.4, families sorted by name. This is the
// body of the daemon's /metrics endpoint; p50/p99 latency come out of
// the histogram buckets via histogram_quantile (or HistSnapshot.
// Quantile, the in-process equivalent).
func WritePrometheus(w io.Writer) error {
	type family struct {
		name  string
		write func(io.Writer) error
	}
	var fams []family

	for _, m := range counters {
		pn := promName(m.name) + "_total"
		fams = append(fams, family{pn, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				pn, escapeHelp(m.help), pn, pn, m.c.Load())
			return err
		}})
	}

	gaugeMu.RLock()
	for name, g := range gauges {
		name, g := name, g
		pn := promName(name)
		help := g.help
		if help == "" {
			help = "Gauge " + name + "."
		}
		fams = append(fams, family{pn, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				pn, escapeHelp(help), pn, pn, g.fn())
			return err
		}})
	}
	gaugeMu.RUnlock()

	for _, f := range histogramFamilies() {
		f := f
		switch {
		case f.vec != nil:
			fams = append(fams, family{f.vec.name, func(w io.Writer) error {
				if err := writeHistHeader(w, f.vec.name, f.vec.help); err != nil {
					return err
				}
				for _, lv := range f.vec.labels() {
					label := fmt.Sprintf(`%s=%q`, f.vec.label, lv)
					if err := writeHistSeries(w, f.vec.name, label, f.vec.With(lv).Snapshot()); err != nil {
						return err
					}
				}
				return nil
			}})
		default:
			fams = append(fams, family{f.h.name, func(w io.Writer) error {
				if err := writeHistHeader(w, f.h.name, f.h.help); err != nil {
					return err
				}
				return writeHistSeries(w, f.h.name, "", f.h.Snapshot())
			}})
		}
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func writeHistHeader(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, escapeHelp(help), name)
	return err
}

// writeHistSeries writes one (possibly labeled) histogram's
// _bucket/_sum/_count series. label is a pre-rendered `key="value"`
// pair or "" for an unlabeled histogram.
func writeHistSeries(w io.Writer, name, label string, s HistSnapshot) error {
	sep := ""
	if label != "" {
		sep = ","
	}
	for i, b := range s.Bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n",
			name, label, sep, formatFloat(b), s.Buckets[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n",
		name, label, sep, s.Buckets[len(s.Buckets)-1]); err != nil {
		return err
	}
	suffix := ""
	if label != "" {
		suffix = "{" + label + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
	return err
}
