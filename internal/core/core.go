// Package core implements the paper's contribution: the four filter-and-
// refine frequent-pattern mining algorithms built on the BBS index.
//
//   - SFS — SingleFilter + SequentialScan (two distinct phases)
//   - SFP — SingleFilter + Probe (phases integrated)
//   - DFS — DualFilter + SequentialScan (two distinct phases)
//   - DFP — DualFilter + Probe (phases integrated; the paper's winner)
//
// Filtering enumerates itemsets depth-first over the item order (paper
// Fig. 2/4), estimating supports with CountItemSet on the BBS. The child of
// an itemset reuses its parent's residual slice intersection and ANDs only
// the new item's slices — an implementation of the same algorithm that
// avoids recomputing the full intersection (ablated in the benchmarks).
// Items whose level-1 estimate is below τ are excluded from the item order
// up front: by the monotonicity of slice intersection (Lemma 3/4), no
// superset can reach τ, so the pruning is semantics-preserving.
//
// The dual filter tracks a (flag, count) pair per itemset, per the paper's
// CheckCount (Fig. 3), certifying most candidates as frequent — often with
// exact counts — without touching the database.
//
// Refinement removes false drops: SequentialScan verifies candidates in
// batches with full database passes; Probe fetches only the transactions
// whose bits survive the slice intersection. The probe-based schemes
// integrate refinement into filtering, stopping chains of false drops
// early; when a probe answers a DualFilter-uncertain node, its exact count
// re-enters the CheckCount machinery, which is why DFP probes so rarely.
//
// # Concurrency model
//
// Mining runs on a bounded worker pool sized by Config.Workers (default:
// one worker per CPU). The level-1 sweep splits the items into contiguous
// chunks, one per worker, and the enumeration fans out at the root — every
// surviving level-1 extension's subtree is an independent task, since a
// subtree depends only on its own residual vector and the read-only level-1
// alphabet — and refinement fans out with it: probe fetches split by
// position range, SequentialScan verification sharded over per-worker
// counters. Workers share nothing mutable except the concurrency-safe
// vector pool and the atomic iostat counters; each keeps private scratch
// vectors so the slice-AND hot path stays allocation-free.
//
// The engine is deterministic: partial results merge in the sequential
// enumeration order and every Result counter is a sum over independent
// subtrees, so a run with Workers: N returns a Result identical — byte for
// byte — to the same run with Workers: 1, for all four schemes. A Miner
// serves one Mine call at a time; the parallelism is inside the call, not
// across calls.
package core

import (
	"context"
	"fmt"
	"sort"

	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

// Scheme selects one of the paper's four algorithms.
type Scheme int

// The four filter-and-refine algorithms of Section 3.3.
const (
	SFS Scheme = iota // SingleFilter + SequentialScan
	SFP               // SingleFilter + Probe
	DFS               // DualFilter + SequentialScan
	DFP               // DualFilter + Probe
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SFS:
		return "SFS"
	case SFP:
		return "SFP"
	case DFS:
		return "DFS"
	case DFP:
		return "DFP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// dualFilter reports whether the scheme runs the dual filter.
func (s Scheme) dualFilter() bool { return s == DFS || s == DFP }

// probes reports whether the scheme refines by probing.
func (s Scheme) probes() bool { return s == SFP || s == DFP }

// Config controls one mining run.
type Config struct {
	// Ctx, when non-nil, cancels the run: the enumeration, refinement and
	// verification loops poll it at their batch boundaries and Mine returns
	// an error wrapping Ctx.Err(). A server uses this to bound per-request
	// work; nil (the default) never cancels and costs nothing on the hot
	// path.
	Ctx context.Context
	// MinSupport is the absolute support threshold τ (count, not fraction).
	MinSupport int
	// Scheme selects the algorithm; the zero value is SFS.
	Scheme Scheme
	// MemoryBudget, when positive and smaller than the BBS, triggers the
	// paper's adaptive three-phase filtering (fold the BBS into a
	// memory-resident MemBBS, filter there, verify against the full BBS).
	// It also batches SequentialScan refinement.
	MemoryBudget int64
	// Constraint optionally restricts mining to the transactions whose bit
	// is set (paper Section 3.4), segment by segment (see BuildConstraint). Only the single-filter schemes support
	// constrained mining: the dual filter's exact 1-itemset counts are
	// unconstrained and its certificates would be unsound.
	Constraint *sigfile.Vec
	// MaxLen bounds pattern length; 0 means unbounded.
	MaxLen int
	// Workers bounds the mining worker pool. 0 (the default) uses one
	// worker per available CPU (runtime.GOMAXPROCS(0)); 1 forces the
	// sequential engine. The Result is identical for every value — see the
	// package documentation's determinism guarantee.
	Workers int

	// Observe, when non-nil, receives the run's telemetry: the
	// filter-and-refine funnel, AND-kernel work, phase timings, cache hit
	// rates and (if a tracer is attached) sampled structured events. Nil
	// disables observability entirely; every hook site then costs one
	// predictable branch. Telemetry never changes the Result — the
	// determinism tests run with it on.
	Observe *obs.Registry

	// NoEarlyExit disables the below-τ early exit while AND-ing an item's
	// slices, so every slice of every evaluated extension is processed.
	// Ablation knob; results are unchanged.
	NoEarlyExit bool
	// NoIncrementalAnd recomputes each candidate's slice intersection from
	// scratch (all items' slices) instead of reusing the parent's residual
	// vector. Ablation knob; results are unchanged.
	NoIncrementalAnd bool
	// NoSliceOrdering keeps each alphabet item's cached slice positions in
	// ascending position order instead of rarest-first (ascending per-slice
	// popcount), so the below-τ early exit fires as late as the seed's.
	// Scoped to the enumeration hot path; ad-hoc CountItemSet queries
	// always order rarest-first. Ablation knob; results are unchanged.
	NoSliceOrdering bool
}

// Pattern is one mined itemset. Support is exact when Exact is true;
// otherwise it is the BBS estimate, which never undercounts (Lemma 4) —
// this happens only for DualFilter patterns certified via the Lemma 5
// lower bound (flag 2).
type Pattern struct {
	Items   []txdb.Item
	Support int
	Exact   bool
}

// Result is the outcome of a mining run, with the bookkeeping the paper's
// evaluation reports.
type Result struct {
	// Patterns is the final answer set in canonical order.
	Patterns []Pattern
	// Candidates is the number of itemsets that passed filtering.
	Candidates int
	// FalseDrops is the number of candidates refinement found infrequent.
	FalseDrops int
	// Certain is the number of patterns the dual filter certified without
	// refinement (flag 1 or 2) — the paper's "80–90% of the candidate
	// frequent patterns can be determined without probing the database".
	Certain int
	// ProbedPatterns is the number of candidate itemsets verified by
	// probing.
	ProbedPatterns int
}

// FalseDropRatio returns FDR = false drops / |frequent patterns| (paper
// Section 4), or 0 when nothing was mined.
func (r *Result) FalseDropRatio() float64 {
	if len(r.Patterns) == 0 {
		return 0
	}
	return float64(r.FalseDrops) / float64(len(r.Patterns))
}

// Frequents converts the result to the shared mining representation.
func (r *Result) Frequents() []mining.Frequent {
	out := make([]mining.Frequent, len(r.Patterns))
	for i, p := range r.Patterns {
		out[i] = mining.Frequent{Items: p.Items, Support: p.Support}
	}
	return out
}

// Miner binds an index to its backing transaction store, segment by
// segment: segment s is one BBS part and the store holding the same rows,
// position i of every slice of the part being row i of the store. An
// unsharded database is one segment; a sharded one is mined in place, one
// segment per shard, with each probe going to the owning shard's store.
type Miner struct {
	idx    *sigfile.Segments
	stores []txdb.Store
	stats  *iostat.Stats
}

// NewMiner returns a one-segment miner over the given index and store. A
// nil stats falls back to the index's sink.
func NewMiner(idx *sigfile.BBS, store txdb.Store, stats *iostat.Stats) (*Miner, error) {
	return NewSegmentMiner([]*sigfile.BBS{idx}, []txdb.Store{store}, stats)
}

// NewSegmentMiner returns a miner over segments: parts[s] indexes the rows
// of stores[s]. The parts must share one hash scheme. A nil stats falls
// back to part 0's sink.
func NewSegmentMiner(parts []*sigfile.BBS, stores []txdb.Store, stats *iostat.Stats) (*Miner, error) {
	if len(parts) != len(stores) {
		return nil, fmt.Errorf("core: %d index segments for %d stores", len(parts), len(stores))
	}
	for s, p := range parts {
		if p.Len() != stores[s].Len() {
			return nil, fmt.Errorf("core: index covers %d transactions, store has %d (segment %d)", p.Len(), stores[s].Len(), s)
		}
	}
	idx, err := sigfile.NewSegments(parts, stats)
	if err != nil {
		return nil, err
	}
	return &Miner{idx: idx, stores: stores, stats: idx.Stats()}, nil
}

// Index returns segment 0's index — the whole index of a one-segment miner.
func (m *Miner) Index() *sigfile.BBS { return m.idx.Parts()[0] }

// Store returns segment 0's store — the whole store of a one-segment miner.
func (m *Miner) Store() txdb.Store { return m.stores[0] }

// Stats returns the accounting sink.
func (m *Miner) Stats() *iostat.Stats { return m.stats }

// ctxErr polls the run's context without blocking: nil while the run may
// continue, a wrapped Ctx.Err() once it is cancelled. The cold paths call
// this directly; the enumeration uses the cached Done channel in run.
func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return fmt.Errorf("core: mining cancelled: %w", c.Ctx.Err())
	default:
		return nil
	}
}

// Mine runs the configured scheme and returns the frequent patterns.
func (m *Miner) Mine(cfg Config) (*Result, error) {
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cfg.MinSupport <= 0 {
		return nil, fmt.Errorf("core: MinSupport must be positive, got %d", cfg.MinSupport)
	}
	if cfg.Constraint != nil {
		if cfg.Scheme.dualFilter() {
			return nil, fmt.Errorf("core: constrained mining requires a single-filter scheme (SFS or SFP), got %s", cfg.Scheme)
		}
		if err := m.checkConstraint(cfg.Constraint); err != nil {
			return nil, err
		}
	}
	// Propagate the memory budget into the stores' buffer-cache model,
	// split evenly across the segments, and reset residency, so each run's
	// probe accounting starts cold.
	for _, st := range m.stores {
		if limiter, ok := st.(txdb.CacheLimiter); ok {
			limiter.SetCacheLimit(cfg.MemoryBudget / int64(len(m.stores)))
		}
	}
	// The run's view carries its telemetry, so the bulk estimate paths
	// (adaptive phase 3, fold) account themselves.
	idx := m.idx.WithObserver(cfg.Observe)
	mineTick := cfg.Observe.Tick()
	var res *Result
	var err error
	if cfg.MemoryBudget > 0 && idx.TotalBytes() > cfg.MemoryBudget {
		res, err = m.mineAdaptive(cfg, idx)
	} else {
		res, err = m.mineResident(cfg, idx)
	}
	cfg.Observe.PhaseDone(obs.PhaseMine, mineTick)
	return res, err
}

// mineResident runs filtering (and, for the probe schemes, integrated
// refinement) against a memory-resident index, then refines leftovers.
func (m *Miner) mineResident(cfg Config, idx *sigfile.Segments) (*Result, error) {
	// Fault the index into the buffer pool (cold pages only — a persistent
	// index stays resident across mining sessions); every slice AND
	// afterwards is an in-memory bitwise operation.
	idx.ChargeColdRead()
	r := newRun(m, idx, cfg)
	r.filter()
	if r.err != nil {
		return nil, r.err
	}

	res := &Result{
		Candidates:     r.candidates,
		FalseDrops:     r.falseDrops,
		Certain:        r.certain,
		ProbedPatterns: r.probedPatterns,
	}

	// Two-phase schemes verify their uncertain candidates now.
	if !cfg.Scheme.probes() && len(r.uncertain) > 0 {
		verified, drops, err := m.sequentialScan(r.uncertain, cfg)
		if err != nil {
			return nil, err
		}
		res.FalseDrops += drops
		r.accepted = append(r.accepted, verified...)
	}
	res.Patterns = r.accepted
	sortPatterns(res.Patterns)
	r.publishFunnel(res)
	return res, nil
}

// publishFunnel folds the finished run's accounting into the telemetry
// registry: the funnel split carried through the (seq-ordered) merge, plus
// pool traffic. Called once per run, after the Result is final, so the
// totals are deterministic regardless of worker count.
func (r *run) publishFunnel(res *Result) {
	o := r.cfg.Observe
	if o == nil {
		return
	}
	verified := int64(0)
	for i := range res.Patterns {
		if res.Patterns[i].Exact {
			verified++
		}
	}
	o.AddFunnel(obs.Funnel{
		Candidates:      int64(res.Candidates),
		CertifiedActual: r.certActual,
		CertifiedEst:    r.certEst,
		Uncertain:       r.uncertainCnt,
		NonFrequent:     r.nonFreq,
		ProbedPatterns:  int64(res.ProbedPatterns),
		FalseDrops:      int64(res.FalseDrops),
		Verified:        verified,
		Patterns:        int64(len(res.Patterns)),
	})
	gets, misses := r.vecs.Counters()
	o.AddPool(gets, misses)
}

// sortPatterns puts patterns into canonical (length, lexicographic) order.
func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := range a.Items {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return false
	})
}
