package core

import (
	"fmt"

	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// DualFilter flags, per paper Fig. 3.
const (
	flagNonFrequent   = -1 // itemset is not frequent (exact knowledge)
	flagUncertain     = 0  // frequent per BBS estimate only
	flagCertainActual = 1  // frequent with 100% guarantee, count is actual
	flagCertainEst    = 2  // frequent with 100% guarantee, count is estimate
)

// run carries the state of one filtering pass. A run is single-goroutine:
// the parallel engine (parallel.go) gives every worker its own run via
// workerRun, sharing only the read-only fields (miner, index, config, the
// level-1 alphabet arrays) and the concurrency-safe vector pool.
type run struct {
	m   *Miner
	idx *sigfile.Segments // the view filtered against (the full BBS or a MemBBS)
	cfg Config
	tau int

	workers int              // resolved parallelism; 1 = the seed's sequential path
	vecs    *sigfile.VecPool // residual pool shared across workers

	// done caches cfg.Ctx.Done() so the cancellation poll on the hot paths
	// is one nil check plus (when serving) one channel select; nil when the
	// run is uncancellable. err latches the wrapped cancellation error and
	// short-circuits the rest of the enumeration.
	done <-chan struct{}
	err  error

	items []txdb.Item // level-1 est-survivors, ascending; the global alphabet
	est1  []int       // BBS estimate of each alphabet item's support
	act1  []int       // exact support of each alphabet item (dual filter info)

	// posCache[gi] holds items[gi]'s distinct slice positions, computed
	// once during the level-1 sweep, so evalExtension never goes back to
	// the hasher (a lock-guarded memo map at best, MD5 at worst — per node
	// visit times alphabet size). Ordered rarest-first by slice popcount
	// unless Config.NoSliceOrdering, which also orders the newPos subsets
	// derived from it. Read-only after the sweep; shared by worker clones.
	posCache [][]int

	applied []bool         // slice positions already ANDed into the path
	scratch []*sigfile.Vec // one evaluation buffer per depth

	rootVec *sigfile.Vec // level-0 residual (all ones, or the constraint)
	rootEst int

	itemset []txdb.Item // current path

	// disableProbing makes the probe schemes collect uncertain candidates
	// instead of probing, which is how the adaptive three-phase mode runs
	// its filtering phase against the coarse MemBBS.
	disableProbing bool

	// inWorker marks worker clones; it disables the nested fan-out of
	// probeExact (a worker's probes run sequentially — the concurrency
	// already comes from the other workers).
	inWorker bool

	accepted  []Pattern
	uncertain []Pattern // two-phase schemes: needs refinement

	candidates     int
	falseDrops     int
	certain        int
	probedPatterns int

	// Telemetry. obs caches cfg.Observe so hot paths test one pointer; nil
	// means every telemetry line below is skipped. kern batches kernel
	// tallies in plain ints, flushed by flushKernel (end of the sequential
	// pass, or per worker). The funnel split mirrors the Result counters and
	// rides the same seq-ordered merge, so its totals are deterministic.
	// traceSubtree stamps emitted events with the enumeration seq of the
	// subtree being mined (-1 at the root).
	obs          *obs.Registry
	kern         obs.KernelSample
	certActual   int64 // dual filter flag 1 certificates
	certEst      int64 // dual filter flag 2 certificates
	uncertainCnt int64 // candidates deferred to refinement
	nonFreq      int64 // dual filter flag -1 prunes
	traceSubtree int
}

func newRun(m *Miner, idx *sigfile.Segments, cfg Config) *run {
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	return &run{
		done:         done,
		m:            m,
		idx:          idx,
		cfg:          cfg,
		tau:          cfg.MinSupport,
		workers:      cfg.workerCount(),
		vecs:         idx.NewPool(),
		applied:      make([]bool, idx.M()),
		obs:          cfg.Observe,
		traceSubtree: -1,
	}
}

// cancelled polls the run's cancellation signal. The first observed
// cancellation latches a wrapped Ctx.Err() into r.err; every subsequent
// call is then a single comparison. An uncancellable run pays one nil
// check.
func (r *run) cancelled() bool {
	if r.err != nil {
		return true
	}
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		r.err = fmt.Errorf("core: mining cancelled: %w", r.cfg.Ctx.Err())
		return true
	default:
		return false
	}
}

// flushKernel moves the batched kernel tallies into the registry in one
// atomic burst. Addition commutes, so flushing per worker instead of per
// evaluation keeps the totals deterministic while avoiding atomic traffic
// on the AND path.
func (r *run) flushKernel() {
	if r.obs == nil {
		return
	}
	r.obs.AddKernel(r.kern)
	r.kern = obs.KernelSample{}
}

// ext is one evaluated extension of the current itemset: an alphabet item
// whose estimated support with the itemset reached τ. Every ext stays in
// the sibling subtrees' alphabets (the paper's GenerateAndFilter removes an
// item from I only for its own subtree); exts that additionally survived
// the scheme's checks descend into subtrees of their own.
type ext struct {
	gi      int // index into run.items / est1 / act1
	est     int
	count   int // dual filter: the count CheckCount (or a probe) settled on
	flag    int
	vec     *sigfile.Vec // residual vector; kept only when descend is set
	newPos  []int        // slice positions this item added over the parent
	descend bool
}

// root returns the level-0 residual vector — the live rows, optionally
// restricted by the constraint — and its count.
func (r *run) root() (*sigfile.Vec, int) {
	v := r.idx.NewResult()
	est := r.idx.Live()
	if r.cfg.Constraint != nil {
		est = v.AndCount(r.cfg.Constraint)
	}
	return v, est
}

// filter runs the filtering pass: a level-1 sweep over every item in the
// index establishes the global alphabet (items whose 1-itemset estimate
// reaches τ — by the monotonicity of slice intersection, Lemmas 3/4, no
// other item can occur in any candidate), then the depth-first enumeration
// of paper Figs. 2/4 proceeds over conditional alphabets: the extensions of
// an itemset are exactly its parent's surviving extensions, which is the
// same enumeration with the guaranteed-failing evaluations skipped.
//
// With workers > 1 the enumeration below level 1 fans out across the worker
// pool (filterParallel); the result is identical to the sequential pass.
func (r *run) filter() {
	sweepTick := r.obs.Tick()
	r.rootVec, r.rootEst = r.root()

	all := r.idx.Items() // ascending — the canonical level-1 enumeration order

	// Level-1 sweep. The alphabet arrays (items/est1/act1) are what
	// CheckCount consults for I1 = {i} at any depth, and each survivor's
	// deduped, ordered positions are cached for every later evaluation.
	if r.workers > 1 {
		r.sweepParallel(all)
	} else {
		r.sweep(all)
	}
	if r.obs != nil {
		// The sweep consulted the hasher for every item; reclassify its
		// evaluations from cache hits (evalExtension's default) to misses.
		r.kern.PosCacheHits -= int64(len(all))
		r.kern.PosCacheMisses += int64(len(all))
	}
	r.obs.PhaseDone(obs.PhaseLevel1, sweepTick)

	enumTick := r.obs.Tick()
	if r.err != nil {
		r.obs.PhaseDone(obs.PhaseEnumerate, enumTick)
		r.flushKernel()
		return
	}
	alphabet := make([]int, len(r.items))
	for i := range alphabet {
		alphabet[i] = i
	}
	if r.workers > 1 {
		r.filterParallel(alphabet)
	} else {
		r.node(alphabet, r.rootVec, r.rootEst, 0, flagCertainActual)
	}
	r.obs.PhaseDone(obs.PhaseEnumerate, enumTick)
	r.flushKernel()
}

// sweep evaluates each item's 1-itemset estimate against the root and
// appends the items reaching τ to the alphabet arrays, in the given order.
func (r *run) sweep(items []txdb.Item) {
	buf := r.vecs.Get()
	defer r.vecs.Put(buf)
	var newPos, pos []int
	for _, it := range items {
		if r.cancelled() {
			return
		}
		pos = sighash.AppendSignatureBits(pos[:0], r.idx.Hasher(), []int32{it})
		if !r.cfg.NoSliceOrdering {
			r.idx.OrderRarestFirst(pos)
		}
		newPos = newPos[:0]
		est := r.evalExtension(buf, r.rootVec, r.rootEst, it, pos, &newPos)
		if est >= r.tau {
			r.items = append(r.items, it)
			r.est1 = append(r.est1, est)
			r.act1 = append(r.act1, r.idx.ExactCount(it))
			r.posCache = append(r.posCache, append([]int(nil), pos...))
		}
	}
}

// evalExtension computes est(r.itemset ∪ {it}) into scratch and records the
// slice positions the item adds over the current path. itemPos is the item's
// distinct slice positions — r.posCache[gi] below level 1, the sweep's
// scratch during it — and newPos inherits its order, so rarest-first
// propagates from the cache into the AND loop. The default path reuses the
// parent's residual vector and ANDs only the new positions, segment by
// segment, with an early exit once the summed count falls below τ; the
// ablation knobs (Config.NoIncrementalAnd, Config.NoEarlyExit) fall back to
// the naive evaluations the benchmarks compare against.
//
// With telemetry on, the same loop tallies which kernel each AND runs and
// how many words it visits, batched into r.kern (flushed per worker).
//
//lint:hotpath
func (r *run) evalExtension(scratch, parentVec *sigfile.Vec, parentEst int, it txdb.Item, itemPos []int, newPos *[]int) int {
	r.m.stats.AddCountCall()
	for _, p := range itemPos {
		if !r.applied[p] {
			*newPos = append(*newPos, p)
		}
	}
	if r.cfg.NoIncrementalAnd {
		// Recompute the whole intersection: every member's slices, then the
		// new item's. Duplicate positions re-AND harmlessly; that waste is
		// what the ablation measures.
		scratch.CopyFrom(r.rootVec)
		est := r.rootEst
		// Iterate r.itemset then it by index: append(r.itemset, it) would
		// copy the itemset into a fresh array on every candidate.
		for i := 0; i <= len(r.itemset); i++ {
			member := it
			if i < len(r.itemset) {
				member = r.itemset[i]
			}
			for _, p := range r.idx.Hasher().Positions(member) {
				est = r.idx.AndSlice(scratch, p)
				if est < r.tau && !r.cfg.NoEarlyExit {
					return est
				}
			}
		}
		return est
	}
	scratch.CopyFrom(parentVec)
	est := parentEst
	done := 0
	for _, p := range *newPos {
		if r.obs != nil {
			r.idx.TallyAnd(&r.kern, scratch, p)
		}
		est = r.idx.AndSlice(scratch, p)
		done++
		if est < r.tau && !r.cfg.NoEarlyExit {
			break
		}
	}
	if r.obs != nil {
		r.kern.Evals++
		r.kern.PosCacheHits++ // positions came from posCache; the sweep reclassifies its own
		if done < len(*newPos) {
			r.kern.EarlyExits++
		}
		r.obs.ObserveAndDepth(int64(done))
	}
	return est
}

// node processes one itemset (the current r.itemset): evaluate every
// alphabet extension, record candidates per the scheme, then recurse into
// the extensions that survived, each seeing the later extensions as its
// alphabet (paper Figs. 2/4: I ← I − {i}, recurse on the remaining I).
func (r *run) node(alphabet []int, parentVec *sigfile.Vec, parentEst, parentCount, parentFlag int) {
	if len(alphabet) == 0 || r.cancelled() {
		return
	}
	if r.cfg.MaxLen > 0 && len(r.itemset) >= r.cfg.MaxLen {
		return
	}
	depth := len(r.itemset)
	for len(r.scratch) <= depth {
		r.scratch = append(r.scratch, r.vecs.Get())
	}
	exts := r.expandNode(alphabet, r.scratch[depth], parentVec, parentEst, parentCount, parentFlag)

	for si := range exts {
		e := &exts[si]
		if !e.descend {
			continue
		}
		childAlphabet := make([]int, 0, len(exts)-si-1)
		for _, later := range exts[si+1:] {
			childAlphabet = append(childAlphabet, later.gi)
		}
		for _, p := range e.newPos {
			r.applied[p] = true
		}
		r.itemset = append(r.itemset, r.items[e.gi])
		if r.obs.Tracing() {
			r.obs.Emit(obs.Event{Kind: "descend", Subtree: r.traceSubtree,
				Depth: len(r.itemset), Items: snapshot(r.itemset), Est: e.est})
		}
		r.node(childAlphabet, e.vec, e.est, e.count, e.flag)
		r.itemset = r.itemset[:len(r.itemset)-1]
		for _, p := range e.newPos {
			r.applied[p] = false
		}
		r.vecs.Put(e.vec) // release before the next sibling's subtree
		e.vec = nil
	}
}

// expandNode evaluates every alphabet extension of the current itemset and
// applies the scheme-specific candidate handling; it is the first half of
// node, shared with the parallel engine, which turns the surviving
// extensions of the root into subtree tasks instead of recursing.
func (r *run) expandNode(alphabet []int, scratch, parentVec *sigfile.Vec, parentEst, parentCount, parentFlag int) []ext {
	depth := len(r.itemset)
	exts := make([]ext, 0, len(alphabet))
	var newPos []int
	for _, gi := range alphabet {
		it := r.items[gi]
		newPos = newPos[:0]
		est := r.evalExtension(scratch, parentVec, parentEst, it, r.posCache[gi], &newPos)
		if est < r.tau {
			if r.obs.Tracing() {
				r.obs.Emit(obs.Event{Kind: "verdict", Verdict: "below_tau", Subtree: r.traceSubtree,
					Depth: depth + 1, Items: append(snapshot(r.itemset), it), Est: est})
			}
			continue // filtered out; gone from every subtree (monotonicity)
		}
		r.candidates++
		r.m.stats.AddCandidate()

		e := ext{gi: gi, est: est, newPos: append([]int(nil), newPos...)}
		r.evaluateCandidate(&e, scratch, parentEst, parentCount, parentFlag, depth)
		if e.descend {
			e.vec = r.vecs.Get()
			e.vec.CopyFrom(scratch)
			// This residual seeds a whole subtree of ANDs; if it has gone
			// sparse, pay one sweep now so they all run the sparse kernel.
			e.vec.MaybeSummarize()
		}
		exts = append(exts, e)
	}
	return exts
}

// evaluateCandidate applies the scheme-specific handling to one candidate
// (r.itemset ∪ alphabet item), deciding acceptance and descent.
func (r *run) evaluateCandidate(e *ext, vec *sigfile.Vec, parentEst, parentCount, parentFlag, depth int) {
	itemset := append(r.itemset, r.items[e.gi])
	probing := r.cfg.Scheme.probes() && !r.disableProbing

	switch {
	case !r.cfg.Scheme.dualFilter() && !probing:
		// SFS: accept provisionally (estimate as support); SequentialScan
		// verifies later. The chain effect runs free.
		r.uncertain = append(r.uncertain, Pattern{Items: snapshot(itemset), Support: e.est})
		r.uncertainCnt++
		e.descend = true
		if r.obs.Tracing() {
			r.obs.Emit(obs.Event{Kind: "verdict", Verdict: "uncertain", Subtree: r.traceSubtree,
				Depth: len(itemset), Items: snapshot(itemset), Est: e.est})
		}

	case !r.cfg.Scheme.dualFilter():
		// SFP: probe immediately; a failed probe stops the chain here.
		exact := r.probeExact(vec, itemset)
		if exact >= r.tau {
			r.accepted = append(r.accepted, Pattern{Items: snapshot(itemset), Support: exact, Exact: true})
			e.descend = true
		} else {
			r.falseDrops++
			r.m.stats.AddFalseDrop()
		}
		r.traceVerdict(itemset, e.est, exact)

	default:
		// DFS / DFP: consult CheckCount (paper Fig. 3).
		flag, count := r.checkCount(e.gi, parentEst, parentCount, parentFlag, e.est, depth)
		e.flag, e.count = flag, count
		if r.obs.Tracing() {
			r.obs.Emit(obs.Event{Kind: "checkcount", Flag: obs.FlagName(flag), Subtree: r.traceSubtree,
				Depth: len(itemset), Items: snapshot(itemset), Est: e.est, Count: count})
		}
		switch {
		case flag == flagNonFrequent:
			// Exact knowledge: not frequent. The chain stops; the item
			// still appears in sibling alphabets, as in the paper.
			r.nonFreq++

		case flag == flagCertainActual || flag == flagCertainEst:
			r.certain++
			if flag == flagCertainActual {
				r.certActual++
			} else {
				r.certEst++
			}
			r.accepted = append(r.accepted, Pattern{
				Items:   snapshot(itemset),
				Support: count,
				Exact:   flag == flagCertainActual,
			})
			e.descend = true

		case probing:
			// DFP: probe the uncertain node now; its exact count re-enters
			// CheckCount for the whole subtree.
			exact := r.probeExact(vec, itemset)
			if exact >= r.tau {
				r.accepted = append(r.accepted, Pattern{Items: snapshot(itemset), Support: exact, Exact: true})
				e.flag, e.count = flagCertainActual, exact
				e.descend = true
			} else {
				r.falseDrops++
				r.m.stats.AddFalseDrop()
			}
			r.traceVerdict(itemset, e.est, exact)

		default:
			// DFS: keep as uncertain, refine later, but keep exploring.
			r.uncertain = append(r.uncertain, Pattern{Items: snapshot(itemset), Support: e.est})
			r.uncertainCnt++
			e.descend = true
		}
	}
}

// traceVerdict emits the accepted/false_drop event for a probe-settled
// candidate.
func (r *run) traceVerdict(itemset []txdb.Item, est, exact int) {
	if !r.obs.Tracing() {
		return
	}
	verdict := "accepted"
	if exact < r.tau {
		verdict = "false_drop"
	}
	r.obs.Emit(obs.Event{Kind: "verdict", Verdict: verdict, Subtree: r.traceSubtree,
		Depth: len(itemset), Items: snapshot(itemset), Est: est, Exact: exact})
}

// checkCount implements algorithm CheckCount (paper Fig. 3) for
// I1 = {items[gi]} and I2 = the current itemset.
//
//	flag -1: itemset ∪ {i} is not frequent (exact)
//	flag  0: frequent per estimate, uncertain
//	flag  1: frequent with 100% guarantee, count is actual
//	flag  2: frequent with 100% guarantee, count is an estimate
func (r *run) checkCount(gi, parentEst, parentCount, parentFlag, childEst, depth int) (int, int) {
	est1, act1 := r.est1[gi], r.act1[gi]
	if depth == 0 { // I2 = NULL: exact 1-itemset knowledge decides alone.
		if act1 < r.tau {
			return flagNonFrequent, act1
		}
		return flagCertainActual, act1
	}
	if parentFlag == flagCertainActual {
		switch {
		case est1 == act1 && parentCount == parentEst:
			// Corollary 1: both sides exact ⇒ the union's estimate is exact.
			return flagCertainActual, childEst
		case est1 == act1 && childEst-(parentEst-parentCount) >= r.tau:
			// Lemma 5 lower bound with I1 exact.
			return flagCertainEst, childEst
		case parentEst == parentCount && childEst-(est1-act1) >= r.tau:
			// Lemma 5 lower bound with I2 exact.
			return flagCertainEst, childEst
		}
	}
	return flagUncertain, childEst
}

// probeExact fetches the transactions marked in vec and counts those that
// actually contain the itemset (algorithm Probe, Section 3.2). Outside the
// worker pool, a probe with enough surviving bits fans its fetches out
// across the configured workers; inside a worker it stays sequential (the
// concurrency already comes from the sibling subtrees).
func (r *run) probeExact(vec *sigfile.Vec, itemset []txdb.Item) int {
	r.probedPatterns++
	if r.workers > 1 && !r.inWorker && vec.Count() >= probeFanOutMin {
		exact := probeParallel(r.m, vec, itemset, r.workers)
		if r.obs.Tracing() {
			// probeParallel leaves vec untouched, so its popcount is the
			// fetch count.
			r.obs.Emit(obs.Event{Kind: "probe", Subtree: r.traceSubtree, Depth: len(itemset),
				Items: snapshot(itemset), Fetched: vec.Count(), Exact: exact})
		}
		return exact
	}
	exact, fetched := 0, 0
	vec.ForEachSet(func(seg, local int) bool {
		// Poll cancellation between fetch batches so a probe over a dense
		// result vector cannot stall a cancelled request.
		if fetched&1023 == 1023 && r.cancelled() {
			return false
		}
		tx, err := r.m.stores[seg].Get(local)
		r.m.stats.AddProbe()
		fetched++
		if err == nil && tx.Contains(itemset) {
			exact++
		}
		return true
	})
	if r.obs.Tracing() {
		r.obs.Emit(obs.Event{Kind: "probe", Subtree: r.traceSubtree, Depth: len(itemset),
			Items: snapshot(itemset), Fetched: fetched, Exact: exact})
	}
	return exact
}

func snapshot(items []txdb.Item) []txdb.Item {
	return append([]txdb.Item(nil), items...)
}
