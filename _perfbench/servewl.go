package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bbsmine"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/shard"
	"bbsmine/internal/txdb"
)

// The serve-mixed workload: an open loop at a fixed rate into an in-process
// serve.Engine over a two-shard, dense, file-backed database. Three
// requests in four are mines, zipf(1.4)-distributed over scheme × τ; one in
// four inserts a weblog-style batch of 4–15 transactions. Each request runs
// on its own goroutine and is timed from its intended send time.
const (
	serveRate    = 16.0 // requests per second at the measured step
	serveShards  = 2
	shedCap      = 64              // in-flight requests beyond which the generator sheds
	reqDeadline  = 5 * time.Second // from the intended send time
	lateBoundMs  = 25.0            // generator lateness p99 above this invalidates a run
	sloReadP95Ms = 250.0
)

var (
	serveSchemes = []string{"SFS", "SFP", "DFS", "DFP"}
	serveTaus    = []float64{0.01, 0.005, 0.003}
	ladderRates  = []float64{24, 32, 48}
)

// queryOf maps a zipf rank to its request: rank 0 is the most popular.
func queryOf(key int) serve.QueryRequest {
	return serve.QueryRequest{Scheme: serveSchemes[key%len(serveSchemes)], MinSupportFrac: serveTaus[key/len(serveSchemes)]}
}

// reqGen is the seeded request sequence: in every group of four one
// request, at a seeded position, is a write; reads deal from a deck whose
// card counts follow zipf(1.4) over the scheme × τ ranks.
type reqGen struct {
	rng       *rand.Rand
	reads     *deck
	batches   [][][]int32
	nextBatch int
	i         int
	writeSlot int
}

func newReqGen(seed int64, batches [][][]int32) *reqGen {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	return &reqGen{rng: rng, reads: newDeck(rng, zipfCards(len(serveSchemes)*len(serveTaus), 1.4, 100)), batches: batches}
}

// zipfCards returns n cards whose rank counts are proportional to
// (1+rank)^-s, rounded by largest remainder.
func zipfCards(ranks int, s float64, n int) []int {
	w := make([]float64, ranks)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
		total += w[k]
	}
	counts := make([]int, ranks)
	rem := make([]float64, ranks)
	dealt := 0
	for k := range w {
		exact := w[k] / total * float64(n)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		dealt += counts[k]
	}
	for ; dealt < n; dealt++ {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	var cards []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			cards = append(cards, k)
		}
	}
	return cards
}

func (g *reqGen) next() (write bool, key int, batch [][]int32) {
	if g.i%4 == 0 {
		g.writeSlot = g.rng.Intn(4)
	}
	write = g.i%4 == g.writeSlot
	g.i++
	if write {
		batch = g.batches[g.nextBatch%len(g.batches)]
		g.nextBatch++
		return true, 0, batch
	}
	return false, g.reads.deal(), nil
}

// serveRig is one set-up engine and the database directory under it.
type serveRig struct {
	dir      string
	sdb      *shard.DB
	eng      *serve.Engine
	stats    *iostat.Stats
	reg      *obs.Registry // nil unless traced
	inserted atomic.Int64  // acknowledged inserts
	closed   bool
}

func (g *serveRig) close() error {
	var err error
	if !g.closed {
		err = g.eng.Close()
		g.closed = true
	}
	if cerr := g.sdb.Close(); err == nil {
		err = cerr
	}
	if rmErr := os.RemoveAll(g.dir); err == nil {
		err = rmErr
	}
	return err
}

// setupServe builds the file-backed database from empty, starts the engine
// over it the way bbsd does, and runs one warm-up rotation, which it checks
// against the oracle off the clock.
func setupServe(r *run, in *inputs, observe bool) (*serveRig, time.Duration, error) {
	dir, err := os.MkdirTemp(r.scratch, "serve-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	g := &serveRig{dir: dir, stats: &iostat.Stats{}}
	g.sdb, err = shard.Open(dir, sigM, sigK, serveShards, g.stats)
	if err != nil {
		return nil, 0, fmt.Errorf("open database: %w", err)
	}
	for _, tx := range in.txs {
		if err := g.sdb.Append(tx); err != nil {
			return nil, 0, fmt.Errorf("append: %w", err)
		}
	}
	parts := make([]serve.ShardOptions, serveShards)
	for s := range parts {
		log, err := txdb.LoadAppendLog(g.sdb.File(s), g.stats)
		if err != nil {
			return nil, 0, fmt.Errorf("load shard %d log: %w", s, err)
		}
		parts[s] = serve.ShardOptions{Index: g.sdb.Index().Part(s), Log: log, File: g.sdb.File(s), IndexPath: g.sdb.IndexPath(s)}
	}
	if observe {
		g.reg = obs.New()
	}
	g.eng, err = serve.New(serve.Options{Shards: parts, Observe: g.reg})
	if err != nil {
		return nil, 0, fmt.Errorf("start engine: %w", err)
	}
	setup := time.Since(start)
	for _, s := range rotation {
		t := time.Now()
		resp, err := g.eng.Query(context.Background(), serve.QueryRequest{Scheme: s.String(), MinSupportFrac: tauFrac})
		setup += time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", s, err)
		}
		ps, err := decode(resp)
		if err != nil {
			return nil, 0, err
		}
		if msg := checkAgainstOracle(ps, in.oracle); msg != "" {
			r.fail("serve warm-up %s: %s", s, msg)
		}
	}
	return g, setup, nil
}

func decode(resp *serve.QueryResponse) ([]pattern, error) {
	pj, err := resp.DecodePatterns()
	if err != nil {
		return nil, err
	}
	ps := make([]pattern, len(pj))
	for i, p := range pj {
		ps[i] = pattern{items: p.Items, support: p.Support, exact: p.Exact}
	}
	return ps, nil
}

// step is one open-loop stretch at one rate.
type step struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	readMs    []float64
	writeMs   []float64
	lateMs    []float64
	stageMs   [5][]float64 // per serve stage, reads that entered it
	commitMs  []float64
	backlogT  []float64
	backlogN  []float64
	answers   map[string]uint64 // epoch vector|scheme|τ → digest of the pattern bytes
}

// slope is the least-squares growth of the in-flight count, requests/s.
func (s *step) slope() float64 {
	n := float64(len(s.backlogT))
	if n < 2 {
		return 0
	}
	var st, sn, stt, stn float64
	for i, t := range s.backlogT {
		st += t
		sn += s.backlogN[i]
		stt += t * t
		stn += t * s.backlogN[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stn - st*sn) / den
}

// meetsSLO is the ladder's pass test: read p95 within the limit, nothing
// failed, and a backlog that does not grow by more than 5% of the rate.
func (s *step) meetsSLO(rate float64) bool {
	return s.failed == 0 && quantile(s.readMs, 0.95) <= sloReadP95Ms && s.slope() <= 0.05*rate
}

// openLoop fires requests at rate for dur, each on its own goroutine, and
// waits for all of them.
func (g *serveRig) openLoop(r *run, gen *reqGen, rate float64, dur time.Duration) *step {
	st := &step{answers: make(map[string]uint64)}
	interval := time.Duration(float64(time.Second) / rate)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		fired := time.Now()
		write, key, batch := gen.next()
		n := inflight.Load()
		st.mu.Lock()
		st.attempted++
		st.lateMs = append(st.lateMs, ms(fired.Sub(due)))
		st.backlogT = append(st.backlogT, fired.Sub(start).Seconds())
		st.backlogN = append(st.backlogN, float64(n))
		shed := n >= shedCap
		if shed {
			st.failed++
		}
		st.mu.Unlock()
		if shed {
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			g.do(r, st, due, write, key, batch)
		}()
	}
	wg.Wait()
	return st
}

// do sends one request and records its latency from the intended send
// time, its stage decomposition and whether it failed.
func (g *serveRig) do(r *run, st *step, due time.Time, write bool, key int, batch [][]int32) {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(reqDeadline))
	defer cancel()
	class := obs.ClassRead
	if write {
		class = obs.ClassWrite
	}
	ctx, sp := g.eng.StartSpan(ctx, "", class)
	op := r.tr.reserve()
	callStart := time.Now()
	if write {
		resp, err := g.eng.Apply(ctx, serve.TxnsRequest{Insert: batch})
		end := time.Now()
		r.tr.record("serve.Apply", sp.ID, op, callStart, end, 1)
		r.tr.finish(op, "client.write", sp.ID, due, end)
		g.inserted.Add(int64(resp.Inserted))
		st.mu.Lock()
		defer st.mu.Unlock()
		if err != nil || resp.Inserted != len(batch) {
			st.failed++
			if err == nil {
				r.fail("write inserted %d of %d transactions", resp.Inserted, len(batch))
			}
			return
		}
		st.writeMs = append(st.writeMs, ms(end.Sub(due)))
		st.commitMs = append(st.commitMs, float64(sp.CommitNs())/1e6)
		return
	}
	resp, err := g.eng.Query(ctx, queryOf(key))
	end := time.Now()
	r.tr.record("serve.Query", sp.ID, op, callStart, end, 1)
	r.tr.finish(op, "client.read", sp.ID, due, end)
	var d uint64
	if err == nil {
		h := fnv.New64a()
		_, _ = h.Write(resp.Patterns) // hash.Hash writes never fail
		d = h.Sum64()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.failed++
		return
	}
	// Same epoch vector, scheme and τ must mean the same answer bytes,
	// whether mined, cached or shared.
	k := fmt.Sprint(resp.Epoch, resp.Epochs, resp.Scheme, resp.Tau)
	if prev, ok := st.answers[k]; ok && prev != d {
		r.fail("query %s at epochs %v: two different answers", k, resp.Epochs)
		st.failed++
		return
	}
	st.answers[k] = d
	st.readMs = append(st.readMs, ms(end.Sub(due)))
	for s := obs.Stage(0); int(s) < len(st.stageMs); s++ {
		if ns := sp.StageNs(s); ns > 0 {
			st.stageMs[s] = append(st.stageMs[s], float64(ns)/1e6)
		}
	}
}

// finalCheck queries every scheme × τ at the final epoch, then closes the
// engine and compares each answer with a library mine and with FP-growth
// over the transactions the data files hold.
func (g *serveRig) finalCheck(r *run, in *inputs) error {
	nq := len(serveSchemes) * len(serveTaus)
	answers := make([][]pattern, nq)
	for k := 0; k < nq; k++ {
		resp, err := g.eng.Query(context.Background(), queryOf(k))
		if err != nil {
			return fmt.Errorf("final query: %w", err)
		}
		if answers[k], err = decode(resp); err != nil {
			return err
		}
	}
	g.closed = true
	if err := g.eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	parts := make([][]txdb.Transaction, serveShards)
	for s := range parts {
		err := g.sdb.File(s).Scan(func(_ int, tx txdb.Transaction) bool {
			parts[s] = append(parts[s], tx)
			return true
		})
		if err != nil {
			return fmt.Errorf("read shard %d data: %w", s, err)
		}
	}
	if d := len(parts[0]) - len(parts[1]); d != 0 && d != 1 {
		r.fail("shard data files hold %d and %d transactions, not a round-robin layout", len(parts[0]), len(parts[1]))
		return nil
	}
	all := make([]txdb.Transaction, 0, len(parts[0])+len(parts[1]))
	for p := 0; p < cap(all); p++ {
		all = append(all, parts[p%serveShards][p/serveShards])
	}
	if want := len(in.txs) + int(g.inserted.Load()); len(all) != want {
		r.fail("data files hold %d transactions, base plus acknowledged inserts is %d", len(all), want)
	}
	lib := bbsmine.NewInMemory(bbsmine.Options{M: sigM, K: sigK, Shards: 1})
	for _, tx := range all {
		if err := lib.Append(tx.TID, tx.Items); err != nil {
			return fmt.Errorf("library append: %w", err)
		}
	}
	for ti, frac := range serveTaus {
		_, oracle, err := oracleMine(all, mining.MinSupportCount(frac, len(all)))
		if err != nil {
			return err
		}
		for si, name := range serveSchemes {
			k := ti*len(serveSchemes) + si
			res, err := lib.Mine(bbsmine.MineOptions{MinSupportFrac: frac, Scheme: libScheme[name]})
			if err != nil {
				return fmt.Errorf("library mine: %w", err)
			}
			if want := fromLibrary(res.Patterns); len(want) != len(answers[k]) || digest(want) != digest(answers[k]) {
				r.fail("final %s τ=%v: engine answer differs from a library mine over the same transactions", name, frac)
			}
			if msg := checkAgainstOracle(answers[k], oracle); msg != "" {
				r.fail("final %s τ=%v: %s", name, frac, msg)
			}
		}
	}
	return nil
}

var libScheme = map[string]bbsmine.Scheme{"SFS": bbsmine.SFS, "SFP": bbsmine.SFP, "DFS": bbsmine.DFS, "DFP": bbsmine.DFP}

// runServe is the serve-mixed workload.
func runServe(r *run) error {
	in, err := makeInputs(r.seed)
	if err != nil {
		return err
	}
	window := time.Duration(r.seconds * float64(time.Second))
	perSecond := serveRate
	for _, rate := range ladderRates {
		perSecond += rate
	}
	batches, err := weblogBatches(r.seed, in.rng, int(r.seconds*perSecond/4)+64)
	if err != nil {
		return err
	}

	if !r.trace {
		var rig *serveRig
		var setups []float64
		var liveMB float64 // heap the last set-up added, as in runMine
		for i := 0; i < setupRepeats; i++ {
			if rig != nil {
				if err := rig.close(); err != nil {
					return err
				}
			}
			base := liveHeapMB()
			var d time.Duration
			if rig, d, err = setupServe(r, in, false); err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			liveMB = liveHeapMB() - base
		}
		defer closeRig(rig)
		st := rig.openLoop(r, newReqGen(r.seed, batches), serveRate, window)
		r.attempted += st.attempted
		r.failed += st.failed
		checkLateness(r, st)
		if err := rig.finalCheck(r, in); err != nil {
			return err
		}
		r.set("setup_s", quantile(setups, 0.5), "s")
		r.set("mine_ms_p50", quantile(st.stageMs[obs.StageMine], 0.5), "ms")
		r.set("point_us_p50", quantile(st.writeMs, 0.5)*1e3, "us")
		r.set("live_heap_mb", liveMB, "MB")
		fmt.Printf("reads %d (p50 %.2fms) writes %d failed %d late_p99 %.2fms backlog_slope %.3f/s\n",
			len(st.readMs), quantile(st.readMs, 0.5), len(st.writeMs), st.failed, quantile(st.lateMs, 0.99), st.slope())
		return nil
	}

	// Traced run: an untraced engine for the client metrics and the rate
	// ladder, then half a window on a fresh engine with the Observer and
	// spans on.
	setZeroLayerMetrics(r)
	plainRig, _, err := setupServe(r, in, false)
	if err != nil {
		return err
	}
	gen := newReqGen(r.seed, batches)
	runtime.GC()
	heap := startHeapSampler()
	plain := plainRig.openLoop(r, gen, serveRate, window)
	r.set("runtime.peak_live_heap_mb", heap.stopMB(), "MB")
	r.attempted += plain.attempted
	r.failed += plain.failed
	checkLateness(r, plain)
	r.set("client.read_ms_p50", quantile(plain.readMs, 0.5), "ms")
	r.set("client.read_ms_p95", tailQuantile(plain.readMs, 0.95), "ms")
	r.set("client.write_ms_p50", quantile(plain.writeMs, 0.5), "ms")
	r.set("client.write_ms_p90", tailQuantile(plain.writeMs, 0.9), "ms")
	r.set("serve.late_ms_p99", quantile(plain.lateMs, 0.99), "ms")
	r.set("load.backlog_slope_16rps", plain.slope(), "1/s")
	slo := 0.0
	if plain.meetsSLO(serveRate) {
		slo = serveRate
		for _, rate := range ladderRates {
			st := plainRig.openLoop(r, gen, rate, window/3)
			r.set(fmt.Sprintf("load.backlog_slope_%.0frps", rate), st.slope(), "1/s")
			fmt.Printf("ladder %.0f rps: read p95 %.1fms failed %d backlog slope %.3f/s\n",
				rate, quantile(st.readMs, 0.95), st.failed, st.slope())
			if !st.meetsSLO(rate) {
				break
			}
			slo = rate
		}
	}
	r.set("client.slo_rps", slo, "1/s")
	if err := plainRig.finalCheck(r, in); err != nil {
		return err
	}
	closeRig(plainRig)

	rig, _, err := setupServe(r, in, true)
	if err != nil {
		return err
	}
	defer closeRig(rig)
	// The warm-up mines already reached the Observer; count from here.
	m0 := rig.reg.Metrics()
	io0 := rig.stats.Snapshot()
	rt0 := readRuntime()
	r.tr.enable()
	traced := rig.openLoop(r, newReqGen(r.seed, batches), serveRate, window/2)
	r.tr.disable()
	rt1 := readRuntime()
	io := rig.stats.Snapshot().Sub(io0)
	r.attempted += traced.attempted
	r.failed += traced.failed
	r.set("client.failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	r.set("trace.overhead_ratio", ratio(quantile(traced.stageMs[obs.StageMine], 0.5), quantile(plain.stageMs[obs.StageMine], 0.5)), "ratio")
	stages := []struct {
		name string
		st   obs.Stage
	}{{"queue", obs.StageQueue}, {"cache", obs.StageCache}, {"bind", obs.StageBind}, {"mine", obs.StageMine}, {"render", obs.StageRender}}
	for _, s := range stages {
		r.set("serve."+s.name+"_ms_p50", quantile(traced.stageMs[s.st], 0.5), "ms")
		r.set("serve."+s.name+"_ms_p95", quantile(traced.stageMs[s.st], 0.95), "ms")
	}
	r.set("serve.commit_ms_p50", quantile(traced.commitMs, 0.5), "ms")
	r.set("serve.commit_ms_p95", quantile(traced.commitMs, 0.95), "ms")
	m1 := rig.reg.Metrics()
	s0, s1 := m0.Server, m1.Server
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	r.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	r.set("serve.shared_flights", float64(s1.SharedFlights-s0.SharedFlights), "count")
	r.set("serve.admission_rejected", float64(s1.Rejected-s0.Rejected), "count")
	m := metricsSince(m0, m1)
	mines := float64(m.Phases["mine"].Calls)
	setPhaseAndFunnel(r, m, mines)
	if mines > 0 {
		r.set("core.slice_ands", float64(io.SliceAnds)/mines, "count")
		r.set("txdb.probes", float64(io.Probes)/mines, "count")
		r.set("txdb.rand_pages", float64(io.DBRandPages)/mines, "count")
		r.set("runtime.alloc_mb_per_mine", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/mines, "MB")
		r.set("runtime.gc_pause_ms", float64(rt1.gcPauseNs-rt0.gcPauseNs)/1e6/mines, "ms")
	}
	if err := rig.finalCheck(r, in); err != nil {
		return err
	}
	r.tr.enable()
	defer r.tr.disable()
	if err := layerPass(r, in, layerServe, nil); err != nil {
		return err
	}
	setSelfTimes(r)
	return nil
}

func closeRig(g *serveRig) {
	if err := g.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing engine:", err)
	}
}

// checkLateness invalidates a run whose generator fired late: its
// latencies would understate what a punctual client sees.
func checkLateness(r *run, st *step) {
	if p99 := quantile(st.lateMs, 0.99); p99 > lateBoundMs {
		r.fail("open-loop generator lagged: lateness p99 %.1f ms exceeds the %.0f ms bound; the run is invalid", p99, lateBoundMs)
	}
}
