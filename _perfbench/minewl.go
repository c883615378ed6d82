package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bbsmine"
)

// The mine workloads: one closed-loop client mining the fig. 6 data in a
// fixed scheme rotation, each mine followed by a batch of ad-hoc counts.
// mine-tiered is the same loop after Database.Tier caps the index at half
// its size, so pager faults and cold-slice kernels dominate.
const (
	countsPerMine = 128
	tierBudget    = 1 << 20 // bytes; the dense index is 1600 slices × 1250 B ≈ 2 MB
	setupRepeats  = 3
)

// workCounters are the deterministic work counts of one mine; they must
// repeat exactly for the same data and scheme.
type workCounters struct {
	Patterns       int   `json:"patterns"`
	Candidates     int   `json:"candidates"`
	ProbedPatterns int   `json:"probed_patterns"`
	SliceAnds      int64 `json:"slice_ands"`
	Probes         int64 `json:"probes"`
}

// mineRig is one set-up database and, when tiered, its cold-file directory.
type mineRig struct {
	db      *bbsmine.Database
	tierDir string // cold files of a tiered database; "" when resident
}

func (m *mineRig) close() error {
	if m.tierDir == "" {
		return nil
	}
	err := m.db.Untier()
	if rmErr := os.RemoveAll(m.tierDir); err == nil {
		err = rmErr
	}
	return err
}

// mineChecker verifies every mine against the oracle and holds each
// scheme's reference digest and work counters.
type mineChecker struct {
	r        *run
	in       *inputs
	digests  map[bbsmine.Scheme]uint64
	counters map[bbsmine.Scheme]workCounters
}

func (c *mineChecker) check(s bbsmine.Scheme, res *bbsmine.Result, wc workCounters) {
	ps := fromLibrary(res.Patterns)
	d := digest(ps)
	if ref, ok := c.digests[s]; !ok {
		if msg := checkAgainstOracle(ps, c.in.oracle); msg != "" {
			c.r.fail("%s mine: %s", s, msg)
			c.r.failed++
		}
		c.digests[s] = d
	} else if d != ref {
		c.r.fail("%s mine: answer differs from the scheme's first, verified answer", s)
		c.r.failed++
	}
	if ref, ok := c.counters[s]; !ok {
		c.counters[s] = wc
	} else if wc != ref {
		c.r.fail("%s mine: work counters drifted: %+v, first mine had %+v", s, wc, ref)
	}
}

// mineOnce runs one timed Mine and returns the result, its wall time and
// its work counters.
func mineOnce(db *bbsmine.Database, s bbsmine.Scheme, o *bbsmine.Observer) (*bbsmine.Result, time.Duration, workCounters, error) {
	before := db.Stats()
	start := time.Now()
	res, err := db.Mine(bbsmine.MineOptions{MinSupportFrac: tauFrac, Scheme: s, Observe: o})
	d := time.Since(start)
	if err != nil {
		return nil, d, workCounters{}, fmt.Errorf("%s mine: %w", s, err)
	}
	delta := db.Stats().Sub(before)
	return res, d, workCounters{
		Patterns:       len(res.Patterns),
		Candidates:     res.Candidates,
		ProbedPatterns: res.ProbedPatterns,
		SliceAnds:      delta.SliceAnds,
		Probes:         delta.Probes,
	}, nil
}

// setupMine builds a database from empty to ready and returns the set-up
// time: appends, the profiling mine and Tier when tiered, and one warm-up
// rotation. The warm-up answers are checked, off the clock.
func setupMine(r *run, in *inputs, chk *mineChecker, tiered bool) (*mineRig, time.Duration, error) {
	start := time.Now()
	rig := &mineRig{db: bbsmine.NewInMemory(bbsmine.Options{M: sigM, K: sigK, Shards: 1})}
	for _, tx := range in.txs {
		if err := rig.db.Append(tx.TID, tx.Items); err != nil {
			return nil, 0, fmt.Errorf("append: %w", err)
		}
	}
	if tiered {
		o := bbsmine.NewObserver()
		if _, err := rig.db.Mine(bbsmine.MineOptions{MinSupportFrac: tauFrac, Scheme: bbsmine.DFP, Observe: o}); err != nil {
			return nil, 0, fmt.Errorf("profiling mine: %w", err)
		}
		dir, err := os.MkdirTemp(r.scratch, "tier-")
		if err != nil {
			return nil, 0, err
		}
		rig.tierDir = dir
		if err := rig.db.Tier(tierBudget, dir, o.SliceTouches()); err != nil {
			return nil, 0, fmt.Errorf("tier: %w", err)
		}
	}
	setup := time.Since(start)
	for _, s := range rotation {
		res, d, wc, err := mineOnce(rig.db, s, nil)
		if err != nil {
			return nil, 0, err
		}
		setup += d
		chk.check(s, res, wc)
	}
	return rig, setup, nil
}

// mineWindow is one measured stretch of the closed loop.
type mineWindow struct {
	counts  *deck // order of the ad-hoc count itemsets
	mineMs  []float64
	countUs []float64
	mines   int
	heapMB  float64 // peak live heap during the window

	// Filled only when observed: work and runtime totals over the mines.
	obs         *bbsmine.Observer
	sliceAnds   int64
	probes      int64
	randPages   int64
	tier        bbsmine.TierStats // delta over the window
	peakResid   int64
	allocBytes  uint64
	gcPauseNs   uint64
	windowNanos int64
}

// runMineWindow mines whole rotations until the window has elapsed, each
// mine followed by a seeded batch of counts. Every answer is checked.
func runMineWindow(r *run, in *inputs, chk *mineChecker, rig *mineRig, window time.Duration, observed bool) (*mineWindow, error) {
	w := &mineWindow{counts: newDeck(in.rng, seq(len(in.pool)))}
	if observed {
		w.obs = bbsmine.NewObserver()
		r.tr.enable()
		defer r.tr.disable()
	}
	runtime.GC()
	tier0 := rig.db.TierStats()
	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	var err error
	for err == nil && (time.Since(start) < window || w.mines%len(rotation) != 0) {
		s := rotation[w.mines%len(rotation)]
		err = w.mineAndCount(r, in, chk, rig, s)
	}
	w.windowNanos = time.Since(start).Nanoseconds()
	w.heapMB = heap.stopMB()
	rt1 := readRuntime()
	w.allocBytes = rt1.allocBytes - rt0.allocBytes
	w.gcPauseNs = rt1.gcPauseNs - rt0.gcPauseNs
	t1 := rig.db.TierStats()
	w.tier = bbsmine.TierStats{
		Faults:    t1.Faults - tier0.Faults,
		Hits:      t1.Hits - tier0.Hits,
		Evictions: t1.Evictions - tier0.Evictions,
		MemBudget: t1.MemBudget,
	}
	return w, err
}

func (w *mineWindow) mineAndCount(r *run, in *inputs, chk *mineChecker, rig *mineRig, s bbsmine.Scheme) error {
	req := fmt.Sprintf("m%d", w.mines)
	op := r.tr.reserve()
	opStart := time.Now()
	before := rig.db.Stats()
	r.attempted++
	res, d, wc, err := mineOnce(rig.db, s, w.obs)
	r.tr.record("bbsmine.Mine", req, op, opStart, opStart.Add(d), 1)
	if err != nil {
		r.failed++
		return err
	}
	w.mineMs = append(w.mineMs, ms(d))
	w.mines++
	r.tr.timed("oracle.verify", op, 1, func() { chk.check(s, res, wc) })
	if w.obs != nil {
		w.sliceAnds += wc.SliceAnds
		w.probes += wc.Probes
		w.randPages += rig.db.Stats().Sub(before).DBRandPages
		if t := rig.db.TierStats(); t.ResidentBytes+t.ReservedBytes > w.peakResid {
			w.peakResid = t.ResidentBytes + t.ReservedBytes
		}
	}
	r.tr.finish(op, "client.mine", req, opStart, time.Now())

	for i := 0; i < countsPerMine; i++ {
		c := in.pool[w.counts.deal()]
		creq := fmt.Sprintf("%s.c%d", req, i)
		r.attempted++
		start := time.Now()
		est, exact, err := rig.db.Count(c.items)
		end := time.Now()
		r.tr.record("bbsmine.Count", creq, 0, start, end, 1)
		if err != nil {
			r.failed++
			return fmt.Errorf("count %v: %w", c.items, err)
		}
		w.countUs = append(w.countUs, us(end.Sub(start)))
		if exact != c.exact || est < exact {
			r.failed++
			r.fail("count %v: estimate %d, exact %d, brute force %d", c.items, est, exact, c.exact)
		}
	}
	return nil
}

// runMine is the mine-resident and mine-tiered workload.
func runMine(r *run, tiered bool) error {
	in, err := makeInputs(r.seed)
	if err != nil {
		return err
	}
	chk := &mineChecker{r: r, in: in, digests: map[bbsmine.Scheme]uint64{}, counters: map[bbsmine.Scheme]workCounters{}}

	// Set up several times and keep the last database. The median is the
	// set-up time; the live heap the last set-up added (between full
	// collections, so the run's inputs and the earlier databases drop out)
	// is the memory the ready system holds. Every set-up's warm-up rotation
	// must reproduce the first one's work counters: the same-seed
	// repeatability check within one process.
	var rig *mineRig
	var setups []float64
	var liveMB float64 // heap the last set-up added
	repeats := setupRepeats
	if r.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		base := liveHeapMB()
		var d time.Duration
		rig, d, err = setupMine(r, in, chk, tiered)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		liveMB = liveHeapMB() - base
	}
	defer func() {
		if err := rig.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing database:", err)
		}
	}()
	if err := r.compareCounters(chk.counters); err != nil {
		return err
	}

	window := time.Duration(r.seconds * float64(time.Second))
	plain, err := runMineWindow(r, in, chk, rig, window, false)
	if err != nil {
		return err
	}
	fmt.Printf("mines %d counts %d window %.1fs\n", plain.mines, len(plain.countUs), float64(plain.windowNanos)/1e9)
	if tiered && plain.tier.Faults == 0 {
		r.fail("tiered workload faulted no pages: tiering did not run")
	}
	if !r.trace {
		r.set("setup_s", quantile(setups, 0.5), "s")
		r.set("mine_ms_p50", quantile(plain.mineMs, 0.5), "ms")
		r.set("point_us_p50", quantile(plain.countUs, 0.5), "us")
		r.set("live_heap_mb", liveMB, "MB")
		return nil
	}

	// Traced run: after the untraced window above (the client metrics),
	// half a window traced with an Observer on every mine, then the layer
	// pass.
	traced, err := runMineWindow(r, in, chk, rig, window/2, true)
	if err != nil {
		return err
	}
	setZeroLayerMetrics(r)
	r.set("client.mine_ms_p90", tailQuantile(plain.mineMs, 0.9), "ms")
	r.set("runtime.peak_live_heap_mb", plain.heapMB, "MB")
	r.set("client.count_us_p50", quantile(plain.countUs, 0.5), "us")
	r.set("client.count_us_p99", tailQuantile(plain.countUs, 0.99), "us")
	r.set("client.failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	r.set("trace.overhead_ratio", ratio(quantile(traced.mineMs, 0.5), quantile(plain.mineMs, 0.5)), "ratio")
	setMineWorkMetrics(r, traced)
	if !tiered {
		if err := obsOverhead(r, rig.db); err != nil {
			return err
		}
	}
	r.tr.enable()
	defer r.tr.disable()
	if err := layerPass(r, in, layerMine, rig); err != nil {
		return err
	}
	setSelfTimes(r)
	return nil
}

// setMineWorkMetrics fills the core, sigfile-kernel, txdb, pager and
// runtime metrics from the observed window.
func setMineWorkMetrics(r *run, w *mineWindow) {
	n := float64(w.mines)
	m := w.obs.Metrics()
	setPhaseAndFunnel(r, m, n)
	r.set("core.slice_ands", float64(w.sliceAnds)/n, "count")
	r.set("txdb.probes", float64(w.probes)/n, "count")
	r.set("txdb.rand_pages", float64(w.randPages)/n, "count")
	r.set("runtime.alloc_mb_per_mine", float64(w.allocBytes)/(1<<20)/n, "MB")
	r.set("runtime.gc_pause_ms", float64(w.gcPauseNs)/1e6/n, "ms")
	if w.tier.MemBudget > 0 {
		r.set("pager.faults_per_mine", float64(w.tier.Faults)/n, "count")
		r.set("pager.hit_ratio", ratio(float64(w.tier.Hits), float64(w.tier.Hits+w.tier.Faults)), "ratio")
		r.set("pager.evictions", float64(w.tier.Evictions)/n, "count")
		r.set("pager.peak_resident_bytes", float64(w.peakResid), "bytes")
		r.set("pager.peak_resident_ratio", float64(w.peakResid)/float64(w.tier.MemBudget), "ratio")
	}
}

// obsOverhead times DFP mines with and without an Observer, alternating,
// and reports the ratio of the medians.
func obsOverhead(r *run, db *bbsmine.Database) error {
	const pairs = 6
	var with, without []float64
	for i := 0; i < pairs; i++ {
		for _, observed := range []bool{i%2 == 0, i%2 != 0} {
			var o *bbsmine.Observer
			if observed {
				o = bbsmine.NewObserver()
			}
			_, d, _, err := mineOnce(db, bbsmine.DFP, o)
			if err != nil {
				return err
			}
			if observed {
				with = append(with, ms(d))
			} else {
				without = append(without, ms(d))
			}
		}
	}
	r.set("obs.overhead_ratio", ratio(quantile(with, 0.5), quantile(without, 0.5)), "ratio")
	return nil
}

// compareCounters checks this run's per-scheme work counters against the
// record an earlier run with the same workload and seed left behind, and
// leaves a record when there is none.
func (r *run) compareCounters(got map[bbsmine.Scheme]workCounters) error {
	named := make(map[string]workCounters, len(got))
	for s, wc := range got {
		named[s.String()] = wc
	}
	path := filepath.Join(r.workDir, fmt.Sprintf("counters-%s-seed%d.json", r.workload, r.seed))
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		out, err := json.MarshalIndent(named, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	case err != nil:
		return fmt.Errorf("reading counter record: %w", err)
	}
	var prev map[string]workCounters
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("parsing counter record %s: %w", path, err)
	}
	for name, wc := range named {
		if p, ok := prev[name]; ok && p != wc {
			r.fail("%s work counters drifted from an earlier run with the same seed: %+v, recorded %+v", name, wc, p)
		}
	}
	return nil
}
