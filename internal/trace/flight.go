package trace

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"bgpc/internal/obs"
)

// Flight is the anomaly-triggered flight recorder: when something
// breaks — the watchdog fires, a backend is ejected, the WAL fuse trips, a
// request breaches the latency threshold — Trigger writes one
// diagnostic bundle capturing the process state that explains it:
//
//	meta.json       trigger reason/detail, process, pid, timestamps
//	goroutines.txt  full goroutine dump (size-capped)
//	heap.pprof      heap profile
//	metrics.prom    the /metrics exposition: counters, gauges, histograms
//	requests.json   recent request timelines (newest first)
//	trace.json      the triggering assembled trace, if one exists
//
// Bundles land in numbered directories under Dir; the recorder rotates
// (oldest deleted beyond MaxBundles), caps each dump's size, and
// enforces a cooldown so an anomaly storm cannot turn diagnosis into
// its own disk outage. A nil *Flight is a valid disabled recorder:
// Trigger is a pointer test, so anomaly sites fire unconditionally.
type Flight struct {
	cfg FlightConfig

	mu       sync.Mutex
	seq      int
	lastTrig time.Time
	writing  bool
}

// FlightConfig configures a flight recorder.
type FlightConfig struct {
	// Dir is the bundle directory (created if absent). Required.
	Dir string
	// MaxBundles bounds the bundle directories retained on disk;
	// oldest are deleted first. < 1 means the default (8).
	MaxBundles int
	// MaxDumpBytes caps each text dump (goroutines, requests) inside a
	// bundle. < 1 means the default (4 MiB).
	MaxDumpBytes int
	// Cooldown is the minimum gap between bundles; triggers inside it
	// are counted (bgpc.diag_suppressed) and dropped. 0 means the
	// default (30s); negative disables the cooldown (tests).
	Cooldown time.Duration
	// Process names the emitting process in meta.json ("bgpcd",
	// "bgpcrouter").
	Process string
	// Log, when set, gets one line per bundle written or failed.
	Log *slog.Logger

	now func() time.Time // test hook
}

// Flight defaults.
const (
	DefaultMaxBundles   = 8
	DefaultMaxDumpBytes = 4 << 20
	DefaultDiagCooldown = 30 * time.Second
)

// NewFlight opens (creating if needed) the bundle directory and
// returns a recorder over it. Sequence numbering continues after the
// highest existing bundle so restarts never overwrite history, and a
// process-wide gauge (bgpc.diag_bundles_on_disk) tracks retention.
func NewFlight(cfg FlightConfig) (*Flight, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("trace: flight recorder needs a directory")
	}
	if cfg.MaxBundles < 1 {
		cfg.MaxBundles = DefaultMaxBundles
	}
	if cfg.MaxDumpBytes < 1 {
		cfg.MaxDumpBytes = DefaultMaxDumpBytes
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultDiagCooldown
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: flight dir: %w", err)
	}
	f := &Flight{cfg: cfg}
	names, err := f.bundleNames()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if s := bundleSeq(n); s > f.seq {
			f.seq = s
		}
	}
	obs.RegisterGauge("bgpc.diag_bundles_on_disk", "Diagnostic bundles currently retained in the flight-recorder directory.", func() int64 {
		ns, err := f.bundleNames()
		if err != nil {
			return -1
		}
		return int64(len(ns))
	})
	return f, nil
}

// Dir returns the bundle directory ("" when nil).
func (f *Flight) Dir() string {
	if f == nil {
		return ""
	}
	return f.cfg.Dir
}

// Trigger fires the flight recorder for one anomaly. reason is a
// stable token ("watchdog", "backend_ejected", "wal_fuse", "slow_request");
// detail is free-form context; asm is the triggering assembled trace
// (nil when the anomaly has no associated trace); timelines are the
// process's recent request timelines. The bundle is written
// synchronously on the caller's goroutine EXCEPT that anomaly sites on
// hot paths should call it via TriggerAsync. Nil-safe. Returns the
// bundle directory path, or "" when suppressed or failed.
func (f *Flight) Trigger(reason, detail string, asm *Assembled, timelines []obs.Timeline) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	now := f.cfg.now()
	if f.writing || (f.cfg.Cooldown > 0 && !f.lastTrig.IsZero() && now.Sub(f.lastTrig) < f.cfg.Cooldown) {
		f.mu.Unlock()
		obs.DiagSuppressed.Inc()
		return ""
	}
	f.writing = true
	f.lastTrig = now
	f.seq++
	seq := f.seq
	f.mu.Unlock()

	dir, err := f.write(seq, now, reason, detail, asm, timelines)

	f.mu.Lock()
	f.writing = false
	f.mu.Unlock()

	if err != nil {
		obs.DiagErrors.Inc()
		if f.cfg.Log != nil {
			f.cfg.Log.Error("diag bundle failed", "reason", reason, "err", err)
		}
		return ""
	}
	obs.DiagBundles.Inc()
	if f.cfg.Log != nil {
		f.cfg.Log.Warn("diag bundle written", "reason", reason, "detail", detail, "dir", dir)
	}
	f.rotate()
	return dir
}

// TriggerAsync is Trigger on a fresh goroutine — for anomaly sites
// that cannot afford a synchronous profile dump (the serving path).
// Nil-safe.
func (f *Flight) TriggerAsync(reason, detail string, asm *Assembled, timelines []obs.Timeline) {
	if f == nil {
		return
	}
	go f.Trigger(reason, detail, asm, timelines)
}

// bundleMeta is the meta.json shape.
type bundleMeta struct {
	Reason    string    `json:"reason"`
	Detail    string    `json:"detail,omitempty"`
	Process   string    `json:"process"`
	PID       int       `json:"pid"`
	Time      time.Time `json:"time"`
	TraceID   string    `json:"trace_id,omitempty"`
	Goroutine int       `json:"goroutines"`
	Seq       int       `json:"seq"`
}

func (f *Flight) write(seq int, now time.Time, reason, detail string, asm *Assembled, timelines []obs.Timeline) (string, error) {
	name := fmt.Sprintf("bundle-%06d-%s", seq, sanitizeReason(reason))
	dir := filepath.Join(f.cfg.Dir, name)
	tmp := dir + ".partial"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	// Written into a .partial directory and renamed at the end, so a
	// crash mid-dump never leaves something that looks like a bundle.
	ok := false
	defer func() {
		if !ok {
			os.RemoveAll(tmp)
		}
	}()

	meta := bundleMeta{
		Reason:    reason,
		Detail:    detail,
		Process:   f.cfg.Process,
		PID:       os.Getpid(),
		Time:      now,
		Goroutine: runtime.NumGoroutine(),
		Seq:       seq,
	}
	if asm != nil {
		meta.TraceID = asm.TraceID
	}
	if err := writeJSON(filepath.Join(tmp, "meta.json"), meta); err != nil {
		return "", err
	}

	var sb strings.Builder
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&sb, 2)
	}
	dump := sb.String()
	if len(dump) > f.cfg.MaxDumpBytes {
		dump = dump[:f.cfg.MaxDumpBytes] + "\n... truncated ...\n"
	}
	if err := os.WriteFile(filepath.Join(tmp, "goroutines.txt"), []byte(dump), 0o644); err != nil {
		return "", err
	}

	hf, err := os.Create(filepath.Join(tmp, "heap.pprof"))
	if err != nil {
		return "", err
	}
	err = pprof.WriteHeapProfile(hf)
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}

	mf, err := os.Create(filepath.Join(tmp, "metrics.prom"))
	if err != nil {
		return "", err
	}
	err = obs.WritePrometheus(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}

	if err := writeJSONCapped(filepath.Join(tmp, "requests.json"), timelines, f.cfg.MaxDumpBytes); err != nil {
		return "", err
	}
	if asm != nil {
		if err := writeJSON(filepath.Join(tmp, "trace.json"), asm); err != nil {
			return "", err
		}
	}

	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	ok = true
	return dir, nil
}

// rotate deletes oldest bundles beyond MaxBundles (by sequence number,
// which the naming scheme makes lexically sortable).
func (f *Flight) rotate() {
	names, err := f.bundleNames()
	if err != nil || len(names) <= f.cfg.MaxBundles {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-f.cfg.MaxBundles] {
		os.RemoveAll(filepath.Join(f.cfg.Dir, n))
	}
}

// bundleNames lists completed bundle directories (partials excluded).
func (f *Flight) bundleNames() ([]string, error) {
	ents, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && !strings.HasSuffix(e.Name(), ".partial") {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// bundleSeq parses the sequence number out of "bundle-000042-reason".
func bundleSeq(name string) int {
	rest := strings.TrimPrefix(name, "bundle-")
	i := strings.IndexByte(rest, '-')
	if i < 0 {
		i = len(rest)
	}
	n := 0
	for _, c := range rest[:i] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func sanitizeReason(r string) string {
	var b strings.Builder
	for _, c := range r {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + 32)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "anomaly"
	}
	s := b.String()
	if len(s) > 32 {
		s = s[:32]
	}
	return s
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeJSONCapped marshals v but drops trailing elements of a slice
// until the encoding fits the cap. Only used for []obs.Timeline.
func writeJSONCapped(path string, timelines []obs.Timeline, maxBytes int) error {
	for {
		b, err := json.MarshalIndent(timelines, "", "  ")
		if err != nil {
			return err
		}
		if len(b) <= maxBytes || len(timelines) == 0 {
			return os.WriteFile(path, append(b, '\n'), 0o644)
		}
		timelines = timelines[:len(timelines)/2]
	}
}
