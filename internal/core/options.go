package core

import (
	"fmt"
	"math"
	"strings"

	"bgpc/internal/obs"
)

// Balance selects one of the paper's costless balancing heuristics
// (Section V) applied during the coloring phase.
type Balance int

const (
	// BalanceNone is the unbalanced baseline ("-U" in Table VI).
	BalanceNone Balance = iota
	// BalanceB1 alternates first-fit and reverse-fit around a
	// thread-local colmax, trying not to increase the color count
	// (Algorithm 11).
	BalanceB1
	// BalanceB2 rotates the start color through [0, colmax] with a
	// restart at colmax/3+1, aggressively balancing at the cost of
	// ~10% more colors (Algorithm 12).
	BalanceB2
)

func (b Balance) String() string {
	switch b {
	case BalanceNone:
		return "U"
	case BalanceB1:
		return "B1"
	case BalanceB2:
		return "B2"
	default:
		return fmt.Sprintf("Balance(%d)", int(b))
	}
}

// NetColorVariant selects the net-based coloring phase implementation.
type NetColorVariant int

const (
	// NetTwoPass is Algorithm 8: a marking pass over each net followed
	// by reverse first-fit coloring of the local uncolored queue. This
	// is the paper's proposed net-based coloring.
	NetTwoPass NetColorVariant = iota
	// NetV1 is Algorithm 6: single-pass, net-local first-fit — the
	// "most optimistic" variant, shown to conflict too much (Table I).
	NetV1
	// NetV1Reverse is the "Alg 6 + reverse" row of Table I: Algorithm 6
	// with the first-fit replaced by reverse first-fit from |vtxs(v)|−1.
	NetV1Reverse
)

func (v NetColorVariant) String() string {
	switch v {
	case NetTwoPass:
		return "two-pass"
	case NetV1:
		return "v1"
	case NetV1Reverse:
		return "v1-reverse"
	default:
		return fmt.Sprintf("NetColorVariant(%d)", int(v))
	}
}

// NetCRAll makes every iteration use net-based conflict removal (the
// V-N∞ schedule).
const NetCRAll = math.MaxInt32

// Options configures one BGPC run. The zero value is the sequential-
// friendly parallel baseline: 1 thread, chunk 1, shared queues, fully
// vertex-based — i.e. ColPack's V-V on one thread.
type Options struct {
	// Threads is the number of workers; values < 1 mean 1.
	Threads int
	// Chunk is the dynamic-scheduling grain (OpenMP dynamic,chunk).
	// Values < 1 mean 1, ColPack's default. The paper's "-64" variants
	// set 64.
	Chunk int
	// LazyQueues switches conflict removal from the shared immediate
	// queue to per-thread queues merged at the barrier (the "D" in
	// V-V-64D).
	LazyQueues bool
	// NetColorIters is the number of initial iterations that use
	// net-based coloring (the leading "Nk" in Nk-N2). Must not exceed
	// NetCRIters: net-based coloring relies on conflicts being marked
	// by uncoloring, which only net-based conflict removal does.
	NetColorIters int
	// NetCRIters is the number of initial iterations that use net-based
	// conflict removal (the trailing "-Nk"); use NetCRAll for V-N∞.
	NetCRIters int
	// NetColorVariant selects the net coloring phase algorithm.
	NetColorVariant NetColorVariant
	// Balance selects the B1/B2 balancing Policy.
	Balance Balance
	// Order optionally gives the initial work-queue permutation
	// (e.g. order.SmallestLast). nil means natural order.
	Order []int32
	// MaxIters caps speculative iterations; 0 means 1000. Exceeding the
	// cap returns an error instead of looping forever.
	MaxIters int
	// CollectPerIteration records per-iteration statistics (needed by
	// the Table I / Figure 1 experiments; small overhead otherwise).
	CollectPerIteration bool
	// Obs attaches an observability Observer: one structured trace
	// event per phase per iteration, with the phase's chunk-dispatch
	// count. nil (the default) disables observability at the cost of
	// one pointer test per phase; the hot loops are untouched.
	Obs *obs.Observer

	// stats is the dispatch accumulator the runner arms when a phase
	// event is emitted (the context Recorder's, or a run-local one for
	// Obs alone); nil keeps the dispatch path at one pointer test.
	stats *obs.LoopStats
}

func (o *Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

func (o *Options) chunk() int {
	if o.Chunk < 1 {
		return 1
	}
	return o.Chunk
}

func (o *Options) maxIters() int {
	if o.MaxIters <= 0 {
		return 1000
	}
	return o.MaxIters
}

func (o *Options) validate(numVertices int) error {
	if o.NetColorIters < 0 || o.NetCRIters < 0 {
		return fmt.Errorf("core: negative phase iteration counts (%d, %d)", o.NetColorIters, o.NetCRIters)
	}
	if o.NetColorIters > o.NetCRIters {
		return fmt.Errorf("core: NetColorIters (%d) > NetCRIters (%d): net-based coloring requires net-based conflict removal to uncolor conflicting vertices", o.NetColorIters, o.NetCRIters)
	}
	if o.Order != nil {
		if len(o.Order) != numVertices {
			return fmt.Errorf("core: Order has length %d, graph has %d vertices", len(o.Order), numVertices)
		}
		seen := make([]bool, numVertices)
		for _, u := range o.Order {
			if u < 0 || int(u) >= numVertices || seen[u] {
				return fmt.Errorf("core: Order is not a permutation of [0,%d)", numVertices)
			}
			seen[u] = true
		}
	}
	switch o.Balance {
	case BalanceNone, BalanceB1, BalanceB2:
	default:
		return fmt.Errorf("core: unknown Balance %d", o.Balance)
	}
	switch o.NetColorVariant {
	case NetTwoPass, NetV1, NetV1Reverse:
	default:
		return fmt.Errorf("core: unknown NetColorVariant %d", o.NetColorVariant)
	}
	return nil
}

// Spec names a configured algorithm, matching the paper's Section VI
// naming scheme.
type Spec struct {
	Name string
	Opts Options
}

// NamedAlgorithms returns the paper's eight BGPC algorithm
// configurations in presentation order. Threads is left zero; callers
// set it per experiment.
func NamedAlgorithms() []Spec {
	return []Spec{
		{Name: "V-V", Opts: Options{Chunk: 1}},
		{Name: "V-V-64", Opts: Options{Chunk: 64}},
		{Name: "V-V-64D", Opts: Options{Chunk: 64, LazyQueues: true}},
		{Name: "V-Ninf", Opts: Options{Chunk: 64, LazyQueues: true, NetCRIters: NetCRAll}},
		{Name: "V-N1", Opts: Options{Chunk: 64, LazyQueues: true, NetCRIters: 1}},
		{Name: "V-N2", Opts: Options{Chunk: 64, LazyQueues: true, NetCRIters: 2}},
		{Name: "N1-N2", Opts: Options{Chunk: 64, LazyQueues: true, NetColorIters: 1, NetCRIters: 2}},
		{Name: "N2-N2", Opts: Options{Chunk: 64, LazyQueues: true, NetColorIters: 2, NetCRIters: 2}},
	}
}

// ParseAlgorithm resolves a paper algorithm name (case-insensitive;
// "V-N∞" and "V-Ninf" both accepted) to its Options.
func ParseAlgorithm(name string) (Options, error) {
	canon := strings.ToUpper(strings.ReplaceAll(name, "∞", "INF"))
	for _, s := range NamedAlgorithms() {
		if strings.ToUpper(s.Name) == canon {
			return s.Opts, nil
		}
	}
	return Options{}, fmt.Errorf("core: unknown algorithm %q (have V-V, V-V-64, V-V-64D, V-Ninf, V-N1, V-N2, N1-N2, N2-N2)", name)
}
