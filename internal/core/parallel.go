package core

import (
	"runtime"
	"sort"
	"sync"

	"bbsmine/internal/mining"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

// The parallel mining engine. Filtering is embarrassingly parallel below
// the root of the enumeration: the subtree under each surviving level-1
// extension depends only on its own residual vector and the read-only
// level-1 alphabet, never on a sibling (the paper's GenerateAndFilter
// removes an item from I only for its own subtree). The engine therefore
// expands the root sequentially, turns every descending extension into a
// subtree task, and runs the tasks on a bounded worker pool; refinement
// fans out the same way (probe fetches split by position range, scan
// verification sharded across per-worker counters).
//
// Determinism: subtree tasks share no mutable state, every Result counter
// is a sum of per-task counts, and partial results are merged in the
// sequential enumeration order — so Workers: N produces a Result identical
// to Workers: 1, byte for byte, for every scheme. Only the interleaving of
// iostat charges differs; their totals are equal as well.

// probeFanOutMin is the number of surviving bits below which a probe is not
// worth fanning out: fetching a handful of transactions costs less than the
// goroutine handoff.
const probeFanOutMin = 256

// scanChunk is the number of transactions handed to a counting worker at a
// time during parallel SequentialScan verification.
const scanChunk = 512

// workerCount resolves Config.Workers: 0 (or negative) means one worker per
// available CPU.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// subtree is one unit of parallel filtering work: a surviving depth-0
// extension together with its conditional alphabet. seq is the position of
// the subtree in the sequential enumeration order, used to merge partial
// results deterministically.
type subtree struct {
	seq      int
	root     ext
	alphabet []int
}

// subtreeResult accumulates one subtree's contribution to the Result,
// funnel split included, so telemetry merges by seq exactly like the
// Result counters.
type subtreeResult struct {
	accepted  []Pattern
	uncertain []Pattern

	err error // cancellation observed while mining the subtree

	candidates     int
	falseDrops     int
	certain        int
	probedPatterns int

	certActual   int64
	certEst      int64
	uncertainCnt int64
	nonFreq      int64
}

// filterParallel is the workers > 1 path of filter: expand the root
// sequentially (recording its level-1 candidates exactly as the sequential
// pass would), then mine the surviving subtrees on the worker pool and
// merge their partial results in enumeration order.
func (r *run) filterParallel(alphabet []int) {
	if len(alphabet) == 0 {
		return
	}
	for len(r.scratch) < 1 {
		r.scratch = append(r.scratch, r.vecs.Get())
	}
	exts := r.expandNode(alphabet, r.scratch[0], r.rootVec, r.rootEst, 0, flagCertainActual)

	tasks := make([]subtree, 0, len(exts))
	for si := range exts {
		e := &exts[si]
		if !e.descend {
			continue
		}
		childAlphabet := make([]int, 0, len(exts)-si-1)
		for _, later := range exts[si+1:] {
			childAlphabet = append(childAlphabet, later.gi)
		}
		tasks = append(tasks, subtree{seq: len(tasks), root: *e, alphabet: childAlphabet})
	}
	if len(tasks) == 0 {
		return
	}

	// Dispatch the heaviest-looking subtrees first (the level-1 estimate is
	// a cheap proxy for subtree size) so a large subtree never ends up last
	// on an otherwise idle pool. The dispatch order is pure scheduling; the
	// merge below restores enumeration order.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].root.est > tasks[order[b]].root.est
	})

	results := make([]subtreeResult, len(tasks))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := r.workerRun()
			for ti := range queue {
				t := &tasks[ti]
				results[t.seq] = wr.mineSubtree(t)
				r.vecs.Put(t.root.vec)
				t.root.vec = nil
			}
			wr.flushKernel() // commutative sums; per-worker flush keeps totals exact
		}()
	}
	for _, ti := range order {
		queue <- ti
	}
	close(queue)
	wg.Wait()

	for i := range results {
		res := &results[i]
		if res.err != nil && r.err == nil {
			r.err = res.err
		}
		r.accepted = append(r.accepted, res.accepted...)
		r.uncertain = append(r.uncertain, res.uncertain...)
		r.candidates += res.candidates
		r.falseDrops += res.falseDrops
		r.certain += res.certain
		r.probedPatterns += res.probedPatterns
		r.certActual += res.certActual
		r.certEst += res.certEst
		r.uncertainCnt += res.uncertainCnt
		r.nonFreq += res.nonFreq
	}
}

// sweepParallel is the workers > 1 path of the level-1 sweep: the items
// split into contiguous ascending chunks, one per worker, each swept
// against the shared read-only root with the worker's own buffer and
// kernel tallies. The chunks' survivors concatenate in chunk order, so the
// alphabet arrays are exactly the sequential sweep's, and every item costs
// the same ANDs either way. The sweep evaluates every item in the index, so
// its share of a mine grows with the threshold: on the fig6 data it is
// under a tenth of a mine at τ = 0.3%, about 60% at 0.5% and nearly all
// of it at 1%. There a sharded index pays most of its per-segment kernel
// calls, which is why the sweep fans out like the enumeration below it.
func (r *run) sweepParallel(all []txdb.Item) {
	workers := min(r.workers, len(all))
	span := (len(all) + workers - 1) / max(workers, 1)
	chunks := make([]*run, workers)
	var wg sync.WaitGroup
	for w := range chunks {
		wr := r.workerRun()
		chunks[w] = wr
		items := all[min(w*span, len(all)):min((w+1)*span, len(all))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.sweep(items)
			wr.flushKernel()
		}()
	}
	wg.Wait()
	for _, wr := range chunks {
		if wr.err != nil && r.err == nil {
			r.err = wr.err
		}
		r.items = append(r.items, wr.items...)
		r.est1 = append(r.est1, wr.est1...)
		r.act1 = append(r.act1, wr.act1...)
		r.posCache = append(r.posCache, wr.posCache...)
	}
}

// workerRun clones the run for one pool worker: shared read-only context
// (miner, index, config, alphabet arrays, vector pool) plus private path
// state, so the worker's slice-AND hot path stays allocation-free across
// the tasks it processes.
func (r *run) workerRun() *run {
	return &run{
		m:              r.m,
		idx:            r.idx,
		cfg:            r.cfg,
		tau:            r.tau,
		workers:        r.workers,
		vecs:           r.vecs,
		done:           r.done,
		items:          r.items,
		est1:           r.est1,
		act1:           r.act1,
		posCache:       r.posCache,
		rootVec:        r.rootVec,
		rootEst:        r.rootEst,
		disableProbing: r.disableProbing,
		inWorker:       true,
		applied:        make([]bool, r.idx.M()),
		obs:            r.obs,
		traceSubtree:   -1,
	}
}

// mineSubtree runs the sequential enumeration over one subtree: the path is
// seeded with the task's level-1 item and node recurses exactly as the
// sequential engine would from that point.
func (w *run) mineSubtree(t *subtree) subtreeResult {
	w.accepted, w.uncertain = nil, nil
	w.candidates, w.falseDrops, w.certain, w.probedPatterns = 0, 0, 0, 0
	w.certActual, w.certEst, w.uncertainCnt, w.nonFreq = 0, 0, 0, 0
	w.err = nil
	w.traceSubtree = t.seq

	w.itemset = append(w.itemset[:0], w.items[t.root.gi])
	for _, p := range t.root.newPos {
		w.applied[p] = true
	}
	w.node(t.alphabet, t.root.vec, t.root.est, t.root.count, t.root.flag)
	for _, p := range t.root.newPos {
		w.applied[p] = false
	}
	w.itemset = w.itemset[:0]
	w.traceSubtree = -1

	return subtreeResult{
		accepted:       w.accepted,
		uncertain:      w.uncertain,
		err:            w.err,
		candidates:     w.candidates,
		falseDrops:     w.falseDrops,
		certain:        w.certain,
		probedPatterns: w.probedPatterns,
		certActual:     w.certActual,
		certEst:        w.certEst,
		uncertainCnt:   w.uncertainCnt,
		nonFreq:        w.nonFreq,
	}
}

// phase3Outcome is one candidate's fate in the adaptive postprocessing
// pass: pruned by the full-resolution re-estimate, accepted by a probe,
// dropped by a probe, or (scan schemes) surviving into batched verification.
type phase3Outcome struct {
	pruned   bool
	probed   bool
	accepted Pattern
	hasMatch bool
}

// reverifyParallel runs the adaptive mode's postprocessing pass (phase 3 of
// mineAdaptive) on the worker pool: each worker re-estimates candidates
// against the full-resolution BBS with a private result vector and, for the
// probe schemes, probes the survivors immediately. Outcomes are recorded by
// candidate position and consumed in order, so accepted patterns, false
// drops, and probe counts match the sequential pass exactly.
func (m *Miner) reverifyParallel(r *run, full *sigfile.Segments, cands []Pattern, cfg Config, workers int) (accepted, survivors []Pattern, falseDrops, probed int) {
	outs := make([]phase3Outcome, len(cands))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(cands)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := r.workerRun()
			buf := r.vecs.Get() // same shape: Fold preserves every segment's n
			defer r.vecs.Put(buf)
			var posBuf []int // per-worker position scratch
			for i := range queue {
				if wr.cancelled() {
					continue // drain; mineAdaptive surfaces the error after the pass
				}
				c := cands[i]
				est := full.CountIntoBuf(buf, c.Items, &posBuf)
				if cfg.Constraint != nil && est > 0 {
					est = buf.AndCount(cfg.Constraint)
				}
				if est < cfg.MinSupport {
					outs[i].pruned = true
					continue
				}
				if !cfg.Scheme.probes() {
					continue // survivor; batched verification follows
				}
				outs[i].probed = true
				if exact := wr.probeExact(buf, c.Items); exact >= cfg.MinSupport {
					outs[i].accepted = Pattern{Items: c.Items, Support: exact, Exact: true}
					outs[i].hasMatch = true
				} else {
					m.stats.AddFalseDrop()
				}
			}
		}()
	}
	for i := range cands {
		queue <- i
	}
	close(queue)
	wg.Wait()

	for i := range outs {
		o := &outs[i]
		switch {
		case o.pruned:
			traceReverify(r.obs, cands[i], 0, "pruned")
		case !cfg.Scheme.probes():
			survivors = append(survivors, cands[i])
			traceReverify(r.obs, cands[i], 0, "survivor")
		case o.hasMatch:
			accepted = append(accepted, o.accepted)
			probed++
			traceReverify(r.obs, cands[i], 0, "accepted")
		default:
			falseDrops++
			probed++
			traceReverify(r.obs, cands[i], 0, "false_drop")
		}
	}
	return accepted, survivors, falseDrops, probed
}

// probeParallel is probeExact with the fetches fanned out: each segment
// with surviving rows is split into word-aligned position ranges, one per
// worker, and a pool of workers goroutines fetches the ranges and sums its
// exact counts. Fetch order within each range stays ascending, preserving
// the elevator-sweep access pattern the cost model assumes; the total is
// independent of the split.
func probeParallel(m *Miner, vec *sigfile.Vec, itemset []txdb.Item, workers int) int {
	type chunk struct{ seg, lo, hi int }
	var chunks []chunk
	for s := 0; s < vec.Segments(); s++ {
		if vec.SegmentCount(s) == 0 {
			continue // nothing to fetch
		}
		n := vec.Segment(s).Len()
		span := (n/workers + 64) &^ 63 // word-aligned chunk, ≥ 64 bits
		for lo := 0; lo < n; lo += span {
			chunks = append(chunks, chunk{s, lo, min(lo+span, n)})
		}
	}
	counts := make([]int, workers)
	queue := make(chan chunk)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range queue {
				seg, store := vec.Segment(c.seg), m.stores[c.seg]
				for j, ok := seg.NextSet(c.lo); ok && j < c.hi; j, ok = seg.NextSet(j + 1) {
					tx, err := store.Get(j)
					m.stats.AddProbe()
					if err == nil && tx.Contains(itemset) {
						counts[w]++
					}
				}
			}
		}()
	}
	for _, c := range chunks {
		queue <- c
	}
	close(queue)
	wg.Wait()
	exact := 0
	for _, c := range counts {
		exact += c
	}
	return exact
}

// batchSupport answers exact-support lookups for one SequentialScan batch.
// The sequential path is a single mining.Counter; the parallel path keeps
// one counter per worker over the same candidates, counts disjoint chunks
// of the scan, and sums per-worker supports — the totals are identical.
type batchSupport struct {
	counters []*mining.Counter
}

// Support returns the batch-wide exact support of a candidate.
func (b *batchSupport) Support(items []txdb.Item) int {
	sup := 0
	for _, c := range b.counters {
		sup += c.Support(items)
	}
	return sup
}

// countBatchParallel runs the verification pass for one batch with the scan
// as producer and the workers counting disjoint transaction chunks against
// per-worker counters.
func (m *Miner) countBatchParallel(candidates []Pattern, workers int) (*batchSupport, error) {
	counters := make([]*mining.Counter, workers)
	for w := range counters {
		counters[w] = mining.NewCounter()
		for _, c := range candidates {
			counters[w].Add(c.Items)
		}
	}

	chunks := make(chan []txdb.Transaction, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(counter *mining.Counter) {
			defer wg.Done()
			for chunk := range chunks {
				for _, tx := range chunk {
					counter.CountTransaction(tx.Items)
				}
			}
		}(counters[w])
	}

	chunk := make([]txdb.Transaction, 0, scanChunk)
	err := m.scanLive(func(tx txdb.Transaction) {
		chunk = append(chunk, tx)
		if len(chunk) == scanChunk {
			chunks <- chunk
			chunk = make([]txdb.Transaction, 0, scanChunk)
		}
	})
	if len(chunk) > 0 {
		chunks <- chunk
	}
	close(chunks)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return &batchSupport{counters: counters}, nil
}
