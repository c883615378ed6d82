package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"bbsmine"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/shard"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them on every workload; a layer the workload does not exercise
// reads 0 (for instance every pager metric outside mine-tiered).
var perLayer = []struct{ name, unit string }{
	{"sighash.positions_ns", "ns"},
	{"sigfile.and_hot_ns", "ns"},
	{"sigfile.and_cold_ns", "ns"},
	{"sigfile.count_ns", "ns"},
	{"sigfile.ands_per_count", "count"},
	{"sigfile.early_exit_ratio", "ratio"},
	{"sigfile.insert_ns", "ns"},
	{"bitvec.words_dense", "count"},
	{"core.level1_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"core.scan_refine_ms", "ms"},
	{"core.candidates", "count"},
	{"core.certified_ratio", "ratio"},
	{"core.false_drops", "count"},
	{"core.probed_patterns", "count"},
	{"core.slice_ands", "count"},
	{"txdb.get_us", "us"},
	{"txdb.scan_ms", "ms"},
	{"txdb.probes", "count"},
	{"txdb.rand_pages", "count"},
	{"txdb.append_us", "us"},
	{"pager.faults_per_mine", "count"},
	{"pager.hit_ratio", "ratio"},
	{"pager.evictions", "count"},
	{"pager.peak_resident_bytes", "bytes"},
	{"pager.peak_resident_ratio", "ratio"},
	{"pager.fault_us", "us"},
	{"pager.frame_fill", "ratio"},
	{"shard.merged_ms", "ms"},
	{"shard.count_us", "us"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p95", "ms"},
	{"serve.cache_ms_p50", "ms"},
	{"serve.cache_ms_p95", "ms"},
	{"serve.bind_ms_p50", "ms"},
	{"serve.bind_ms_p95", "ms"},
	{"serve.mine_ms_p50", "ms"},
	{"serve.mine_ms_p95", "ms"},
	{"serve.render_ms_p50", "ms"},
	{"serve.render_ms_p95", "ms"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.commit_ms_p95", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shared_flights", "count"},
	{"serve.admission_rejected", "count"},
	{"serve.late_ms_p99", "ms"},
	{"obs.overhead_ratio", "ratio"},
	{"runtime.alloc_mb_per_mine", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_live_heap_mb", "MB"},
	{"client.mine_ms_p90", "ms"},
	{"client.count_us_p50", "us"},
	{"client.count_us_p99", "us"},
	{"client.read_ms_p50", "ms"},
	{"client.read_ms_p95", "ms"},
	{"client.write_ms_p50", "ms"},
	{"client.write_ms_p90", "ms"},
	{"client.failed_frac", "ratio"},
	{"client.slo_rps", "1/s"},
	{"load.backlog_slope_16rps", "1/s"},
	{"load.backlog_slope_24rps", "1/s"},
	{"load.backlog_slope_32rps", "1/s"},
	{"load.backlog_slope_48rps", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_ms.client", "ms"},
	{"trace.self_ms.bbsmine", "ms"},
	{"trace.self_ms.serve", "ms"},
	{"trace.self_ms.oracle", "ms"},
	{"trace.self_ms.sighash", "ms"},
	{"trace.self_ms.sigfile", "ms"},
	{"trace.self_ms.txdb", "ms"},
	{"trace.self_ms.pager", "ms"},
	{"trace.self_ms.shard", "ms"},
}

// setZeroLayerMetrics starts every per-layer metric at 0.
func setZeroLayerMetrics(r *run) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// setSelfTimes reports each layer's self time summed over the traced
// spans: the span's duration minus what its child spans cover.
func setSelfTimes(r *run) {
	self := r.tr.selfTimes()
	for _, m := range perLayer {
		const prefix = "trace.self_ms."
		if len(m.name) > len(prefix) && m.name[:len(prefix)] == prefix {
			r.set(m.name, ms(self[m.name[len(prefix):]]), "ms")
		}
	}
}

// setPhaseAndFunnel fills the observer-derived core and kernel metrics,
// averaged over n mines.
func setPhaseAndFunnel(r *run, m bbsmine.ObserverMetrics, n float64) {
	if n == 0 {
		return
	}
	r.set("core.level1_ms", float64(m.Phases["level1"].Ns)/1e6/n, "ms")
	r.set("core.enumerate_ms", float64(m.Phases["enumerate"].Ns)/1e6/n, "ms")
	r.set("core.scan_refine_ms", float64(m.Phases["scan_refine"].Ns)/1e6/n, "ms")
	f := m.Funnel
	r.set("core.candidates", float64(f.Candidates)/n, "count")
	r.set("core.certified_ratio", ratio(float64(f.CertifiedActual+f.CertifiedEst), float64(f.Candidates)), "ratio")
	r.set("core.false_drops", float64(f.FalseDrops)/n, "count")
	r.set("core.probed_patterns", float64(f.ProbedPatterns)/n, "count")
	k := m.Kernel
	r.set("sigfile.ands_per_count", ratio(float64(k.AndsDense+k.AndsSparse), float64(k.Evals)), "count")
	r.set("sigfile.early_exit_ratio", ratio(float64(k.EarlyExits), float64(k.Evals)), "ratio")
	r.set("bitvec.words_dense", float64(k.WordsDense)/n, "count")
}

// metricsSince returns the observer counters setPhaseAndFunnel reads,
// accumulated between two snapshots of one Observer.
func metricsSince(before, after bbsmine.ObserverMetrics) bbsmine.ObserverMetrics {
	d := after
	d.Phases = make(map[string]obs.PhaseMetrics, len(after.Phases))
	for k, p := range after.Phases {
		b := before.Phases[k]
		d.Phases[k] = obs.PhaseMetrics{Ns: p.Ns - b.Ns, Calls: p.Calls - b.Calls}
	}
	f, bf := &d.Funnel, before.Funnel
	f.Candidates -= bf.Candidates
	f.CertifiedActual -= bf.CertifiedActual
	f.CertifiedEst -= bf.CertifiedEst
	f.FalseDrops -= bf.FalseDrops
	f.ProbedPatterns -= bf.ProbedPatterns
	k, bk := &d.Kernel, before.Kernel
	k.Evals -= bk.Evals
	k.EarlyExits -= bk.EarlyExits
	k.AndsDense -= bk.AndsDense
	k.AndsSparse -= bk.AndsSparse
	k.WordsDense -= bk.WordsDense
	return d
}

// layerKind selects which layers the pass exercises: the ones the
// workload's own configuration runs through.
type layerKind int

const (
	layerMine  layerKind = iota // in-memory store; cold slices when tiered
	layerServe                  // file-backed store, two shards
)

// layerPass times each layer from outside, calling its package directly on
// a copy of the workload's data. Every timed loop is one span.
func layerPass(r *run, in *inputs, kind layerKind, rig *mineRig) error {
	tr := r.tr
	// Start without a collection in flight: the workload windows before the
	// pass leave plenty of garbage behind.
	runtime.GC()

	// sighash: first Positions call per item on a fresh hasher.
	h := sighash.NewMD5(sigM, sigK)
	const alphabet = 10000
	d := tr.timed("sighash.Positions", 0, alphabet, func() {
		for it := int32(0); it < alphabet; it++ {
			h.Positions(it)
		}
	})
	r.set("sighash.positions_ns", float64(d.Nanoseconds())/alphabet, "ns")

	// sigfile: insert the base data into a fresh index.
	stats := &iostat.Stats{}
	b := sigfile.New(sighash.NewMD5(sigM, sigK), stats)
	d = tr.timed("sigfile.Insert", 0, len(in.txs), func() {
		for _, tx := range in.txs {
			b.Insert(tx.Items)
		}
	})
	r.set("sigfile.insert_ns", float64(d.Nanoseconds())/float64(len(in.txs)), "ns")

	// sigfile: replay CountIntoBuf over the run's candidate itemsets — the
	// oracle's frequent set plus the ad-hoc count pool.
	var sets [][]int32
	for _, f := range in.freq {
		sets = append(sets, f.Items)
	}
	for _, c := range in.pool {
		sets = append(sets, c.items)
	}
	dst := b.NewResult()
	var buf []int
	d = tr.timed("sigfile.CountIntoBuf", 0, len(sets), func() {
		for _, s := range sets {
			b.CountIntoBuf(dst, s, &buf)
		}
	})
	r.set("sigfile.count_ns", float64(d.Nanoseconds())/float64(len(sets)), "ns")

	if kind == layerMine && rig.tierDir != "" {
		if err := coldLayers(r, b, rig); err != nil {
			return err
		}
	} else {
		all := make([]int, b.M())
		for p := range all {
			all[p] = p
		}
		r.set("sigfile.and_hot_ns", andNs(tr, b, all, "sigfile.AndSlice"), "ns")
	}

	// txdb: probes and one scan over the workload's kind of store.
	var store txdb.Store
	if kind == layerServe {
		path := filepath.Join(r.scratch, "layer.txdb")
		var fs *txdb.FileStore
		var err error
		d = tr.timed("txdb.Append", 0, len(in.txs), func() {
			fs, err = txdb.WriteAll(path, stats, in.txs)
		})
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		defer func() { _ = fs.Close() }() // a scratch copy, removed with the run's scratch dir
		r.set("txdb.append_us", us(d)/float64(len(in.txs)), "us")
		store = fs
	} else {
		mem, err := txdb.NewMemStoreFrom(stats, in.txs)
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		store = mem
	}
	const gets = 2000
	var getErr error
	d = tr.timed("txdb.Get", 0, gets, func() {
		for i := 0; i < gets && getErr == nil; i++ {
			_, getErr = store.Get(in.rng.Intn(store.Len()))
		}
	})
	if getErr != nil {
		return fmt.Errorf("layer pass: %w", getErr)
	}
	r.set("txdb.get_us", us(d)/gets, "us")
	var scanErr error
	d = tr.timed("txdb.Scan", 0, 1, func() {
		scanErr = store.Scan(func(int, txdb.Transaction) bool { return true })
	})
	if scanErr != nil {
		return fmt.Errorf("layer pass: %w", scanErr)
	}
	r.set("txdb.scan_ms", ms(d), "ms")

	if kind == layerServe {
		return shardLayers(r, in)
	}
	return nil
}

// andNs times AND-ing each listed slice into an all-ones accumulator and
// subtracts the cost of resetting the accumulator, leaving ns per AND.
func andNs(tr *tracer, b *sigfile.BBS, slices []int, name string) float64 {
	if len(slices) == 0 {
		return 0
	}
	const rounds = 20
	dst := b.NewResult()
	runtime.GC()
	d := tr.timed(name, 0, rounds*len(slices), func() {
		for i := 0; i < rounds; i++ {
			for _, p := range slices {
				dst.SetAll()
				b.AndSlice(dst, p)
			}
		}
	})
	reset := timeIt(func() {
		for i := 0; i < rounds; i++ {
			for range slices {
				dst.SetAll()
			}
		}
	})
	return float64((d - reset).Nanoseconds()) / float64(rounds*len(slices))
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// coldLayers tiers the pass's own index under the workload's budget and
// times hot and cold slice ANDs, then faults every page of the workload's
// own cold file through a pool too small to hold it.
func coldLayers(r *run, b *sigfile.BBS, rig *mineRig) error {
	tr := r.tr
	pg := pager.New(tierBudget)
	path := filepath.Join(r.scratch, "layer.cold")
	if err := b.Tier(pg, path, tierBudget/2, nil); err != nil {
		return fmt.Errorf("layer pass: tier: %w", err)
	}
	defer func() { _ = b.Untier() }() // the pass's private copy; its cold file goes with the scratch dir
	// A slice is cold when AND-ing it touches the pool.
	var hot, cold []int
	dst := b.NewResult()
	for p := 0; p < b.M(); p++ {
		before := pg.Stats()
		dst.SetAll()
		b.AndSlice(dst, p)
		after := pg.Stats()
		if after.Hits+after.Faults > before.Hits+before.Faults {
			cold = append(cold, p)
		} else {
			hot = append(hot, p)
		}
	}
	r.set("sigfile.and_hot_ns", andNs(tr, b, hot, "sigfile.AndSlice"), "ns")
	r.set("sigfile.and_cold_ns", andNs(tr, b, cold, "sigfile.AndSliceCold"), "ns")

	small := pager.New(8 * pager.PageSize)
	f, err := small.OpenCold(filepath.Join(rig.tierDir, "slices.cold"))
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only handle
	var pageErr error
	d := tr.timed("pager.Page", 0, int(f.Pages()), func() {
		for k := int64(0); k < f.Pages() && pageErr == nil; k++ {
			_, pageErr = f.Page(k)
			f.Release(k)
		}
	})
	if pageErr != nil {
		return fmt.Errorf("layer pass: %w", pageErr)
	}
	if faults := small.Stats().Faults; faults != f.Pages() {
		r.fail("pager pass: %d faults for %d pages through an 8-page pool", faults, f.Pages())
	}
	r.set("pager.fault_us", us(d)/float64(f.Pages()), "us")
	r.set("pager.frame_fill", float64(rig.db.TierStats().ColdBytes)/float64(f.Pages()*pager.PageSize), "ratio")
	return nil
}

// shardLayers times the two-shard merged view right after a write and the
// fan-out Count.
func shardLayers(r *run, in *inputs) error {
	tr := r.tr
	db, err := shard.NewMem(sighash.NewMD5(sigM, sigK), 2, nil)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	for _, tx := range in.txs {
		if err := db.Append(tx); err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
	}
	const writes = 20
	var merged time.Duration
	for i := 0; i < writes; i++ {
		tx := in.txs[in.rng.Intn(len(in.txs))]
		if err := db.Append(txdb.NewTransaction(int64(db.Len()), tx.Items)); err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		merged += tr.timed("shard.Merged", 0, 1, func() { _, _, err = db.Merged() })
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
	}
	r.set("shard.merged_ms", ms(merged)/writes, "ms")
	var countErr error
	d := tr.timed("shard.Count", 0, len(in.pool), func() {
		for _, c := range in.pool {
			if _, _, err := db.Count(c.items); err != nil {
				countErr = err
				return
			}
		}
	})
	if countErr != nil {
		return fmt.Errorf("layer pass: %w", countErr)
	}
	r.set("shard.count_us", us(d)/float64(len(in.pool)), "us")
	return nil
}
