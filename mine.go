package bbsmine

import (
	"context"
	"fmt"

	"bbsmine/internal/core"
	"bbsmine/internal/mining"
	"bbsmine/internal/rules"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

// Scheme selects one of the paper's four filter-and-refine algorithms.
type Scheme = core.Scheme

// The four mining algorithms of the paper's Section 3.3. DFP (dual filter +
// probe) is the paper's best performer across every workload it evaluates.
const (
	SFS = core.SFS // SingleFilter + SequentialScan
	SFP = core.SFP // SingleFilter + Probe
	DFS = core.DFS // DualFilter + SequentialScan
	DFP = core.DFP // DualFilter + Probe
)

// Pattern is one mined itemset. When Exact is false the support is the
// index's estimate, which never undercounts the true support.
type Pattern = core.Pattern

// Result carries the mined patterns plus the run's bookkeeping (candidate
// count, false drops, how many patterns the dual filter certified without
// touching the database).
type Result = core.Result

// MineOptions parameterizes a mining run.
type MineOptions struct {
	// Ctx, when non-nil, cancels the run when it is done: Mine returns an
	// error wrapping Ctx.Err(). Use it to bound a query's latency (deadline)
	// or abandon it (cancellation); nil never cancels.
	Ctx context.Context
	// MinSupportFrac is the minimum support as a fraction of the database
	// size (the paper's default is 0.003, i.e. 0.3%). Ignored when
	// MinSupportCount is set.
	MinSupportFrac float64
	// MinSupportCount is the absolute support threshold; takes precedence
	// over MinSupportFrac when positive.
	MinSupportCount int
	// Scheme selects the algorithm; the zero value is SFS. Use DFP unless
	// you are comparing schemes.
	Scheme Scheme
	// MemoryBudget, in bytes, triggers the adaptive three-phase filtering
	// when the index exceeds it, and batches sequential verification.
	// Zero means unconstrained.
	MemoryBudget int64
	// MaxLen bounds pattern length; 0 means unbounded.
	MaxLen int
	// Workers bounds the mining worker pool. 0 (the default) uses one
	// worker per available CPU; 1 forces the sequential engine. Every value
	// returns the identical Result — parallelism changes only the wall
	// clock, never the answer or the accounting.
	Workers int
	// Ablation knobs, for benchmarking only: each disables one hot-path
	// optimization without changing any result. NoEarlyExit keeps AND-ing
	// slices after the running count has fallen below the threshold;
	// NoIncrementalAnd recomputes every intersection from the root instead
	// of extending the parent's residual; NoSliceOrdering ANDs slices in
	// hash-position order instead of rarest-first.
	NoEarlyExit      bool
	NoIncrementalAnd bool
	NoSliceOrdering  bool

	// Observe, when non-nil, collects the run's telemetry: funnel counters
	// (candidates, certificates by flag, false drops), AND-kernel work,
	// phase timings, cache hit rates and optional sampled trace events.
	// Read a snapshot with Observe.Metrics() after (or during) the run.
	// Nil disables observability at a cost of one branch per hook site;
	// telemetry never changes the mining result.
	Observe *Observer

	// Shards is a guard, not a knob: 0 (the default) accepts whatever the
	// database is, any other value must equal the database's shard count or
	// the run is rejected. Mining results never depend on the shard count —
	// set this only to assert a deployment assumption (e.g. a benchmark
	// that must run sharded).
	Shards int
}

func (o MineOptions) threshold(n int) (int, error) {
	if o.MinSupportCount > 0 {
		return o.MinSupportCount, nil
	}
	if o.MinSupportFrac <= 0 || o.MinSupportFrac > 1 {
		return 0, fmt.Errorf("bbsmine: need MinSupportCount > 0 or MinSupportFrac in (0,1], got %v / %v",
			o.MinSupportCount, o.MinSupportFrac)
	}
	return mining.MinSupportCount(o.MinSupportFrac, n), nil
}

// checkShards enforces MineOptions.Shards as a deployment assertion.
func (db *Database) checkShards(opts MineOptions) error {
	if opts.Shards != 0 && opts.Shards != db.Shards() {
		return fmt.Errorf("bbsmine: MineOptions.Shards is %d but the database has %d shards", opts.Shards, db.Shards())
	}
	return nil
}

// Mine returns the frequent patterns of the database under the options.
func (db *Database) Mine(opts MineOptions) (*Result, error) {
	if err := db.checkShards(opts); err != nil {
		return nil, err
	}
	tau, err := opts.threshold(db.Len())
	if err != nil {
		return nil, err
	}
	m, err := db.miner()
	if err != nil {
		return nil, err
	}
	return m.Mine(core.Config{
		Ctx:              opts.Ctx,
		MinSupport:       tau,
		Scheme:           opts.Scheme,
		MemoryBudget:     opts.MemoryBudget,
		MaxLen:           opts.MaxLen,
		Workers:          opts.Workers,
		NoEarlyExit:      opts.NoEarlyExit,
		NoIncrementalAnd: opts.NoIncrementalAnd,
		NoSliceOrdering:  opts.NoSliceOrdering,
		Observe:          opts.Observe,
	})
}

// MineApprox runs filtering with no refinement phase (the paper's future-
// work extension): fastest possible answer, supports are estimates, the
// pattern set is a superset of the true frequent patterns.
func (db *Database) MineApprox(opts MineOptions) ([]Pattern, error) {
	if err := db.checkShards(opts); err != nil {
		return nil, err
	}
	tau, err := opts.threshold(db.Len())
	if err != nil {
		return nil, err
	}
	m, err := db.miner()
	if err != nil {
		return nil, err
	}
	return m.MineApprox(tau, opts.MaxLen, opts.Workers)
}

// Count estimates and exactly counts the occurrences of an arbitrary
// itemset — frequent or not — using one index lookup plus targeted probes.
// On a sharded database every shard ANDs its own slices and probes its own
// candidates, and the estimates and counts add.
func (db *Database) Count(items []int32) (estimate, exact int, err error) {
	return db.sdb.Count(items)
}

// CountWhere counts itemset occurrences among the transactions satisfying
// the predicate (the paper's constrained ad-hoc queries, e.g. "TIDs
// divisible by 7"). Building the constraint slice costs one sequential
// pass; see NewConstraint to build once and reuse.
func (db *Database) CountWhere(items []int32, pred func(tid int64) bool) (estimate, exact int, err error) {
	c, err := db.NewConstraint(pred)
	if err != nil {
		return 0, 0, err
	}
	return db.CountConstrained(items, c)
}

// Constraint marks a subset of the database's transactions for constrained
// queries and constrained mining. It is bound to the database state at
// creation time: appending transactions invalidates it.
type Constraint struct {
	vec *sigfile.Vec
	n   int
}

// NewConstraint materializes a constraint from a predicate over TIDs. The
// constraint is laid out per shard, one segment per shard's rows, which is
// what constrained counting and mining consume; it is opaque to callers.
func (db *Database) NewConstraint(pred func(tid int64) bool) (*Constraint, error) {
	m, err := db.miner()
	if err != nil {
		return nil, err
	}
	v, err := m.Constraint(func(tx txdb.Transaction) bool { return pred(tx.TID) })
	if err != nil {
		return nil, err
	}
	return &Constraint{vec: v, n: db.Len()}, nil
}

// CountConstrained counts itemset occurrences under a previously built
// constraint.
func (db *Database) CountConstrained(items []int32, c *Constraint) (estimate, exact int, err error) {
	if c.n != db.Len() {
		return 0, 0, fmt.Errorf("bbsmine: constraint built over %d transactions, database now has %d", c.n, db.Len())
	}
	m, err := db.miner()
	if err != nil {
		return 0, 0, err
	}
	return m.CountConstrained(items, c.vec)
}

// MineConstrained mines frequent patterns restricted to the constrained
// transactions. Only the single-filter schemes (SFS, SFP) are valid: the
// dual filter's exact 1-itemset counts are unconstrained, so DFS and DFP
// are rejected.
func (db *Database) MineConstrained(opts MineOptions, c *Constraint) (*Result, error) {
	if err := db.checkShards(opts); err != nil {
		return nil, err
	}
	if c.n != db.Len() {
		return nil, fmt.Errorf("bbsmine: constraint built over %d transactions, database now has %d", c.n, db.Len())
	}
	tau, err := opts.threshold(db.Len())
	if err != nil {
		return nil, err
	}
	m, err := db.miner()
	if err != nil {
		return nil, err
	}
	return m.Mine(core.Config{
		Ctx:              opts.Ctx,
		MinSupport:       tau,
		Scheme:           opts.Scheme,
		MemoryBudget:     opts.MemoryBudget,
		MaxLen:           opts.MaxLen,
		Workers:          opts.Workers,
		NoEarlyExit:      opts.NoEarlyExit,
		NoIncrementalAnd: opts.NoIncrementalAnd,
		NoSliceOrdering:  opts.NoSliceOrdering,
		Observe:          opts.Observe,
		Constraint:       c.vec,
	})
}

// Rule re-exports the association-rule type.
type Rule = rules.Rule

// Rules mines frequent patterns with exact supports (scheme SFP, so every
// support is exact) and derives the association rules meeting the
// confidence threshold.
func (db *Database) Rules(opts MineOptions, minConfidence float64) ([]Rule, error) {
	opts.Scheme = SFP
	res, err := db.Mine(opts)
	if err != nil {
		return nil, err
	}
	return rules.Generate(res.Frequents(), minConfidence, db.Len())
}
