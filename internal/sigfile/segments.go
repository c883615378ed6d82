package sigfile

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sighash"
)

// Segmented reads.
//
// A sharded index is N BBS parts over disjoint row blocks, all built with
// one hash scheme. The support of an itemset is a sum over disjoint row
// sets, so its estimate is the sum of the per-part estimates, and the AND
// chain of paper Fig. 1 runs part by part where the parts live: slice p of
// every segment is AND-ed into that segment's sub-vector of the residual,
// and the popcounts add. Segments is that read view and Vec the residual it
// works on; an unsharded index is the one-segment case of the same code.
//
// Every decision the miners make reads only sums over the parts — the
// running estimate, the rarest-first order (summed per-slice popcounts),
// the exact 1-itemset counts, the adaptive fold width — so a segmented
// run visits the same itemsets, takes the same early exits and reports the
// same counters as one index holding every row. No part is copied: a cold
// slice keeps faulting through the buffer pool, one segment at a time.
//
// COBS (PAPERS.md) is the precedent: independent bit-sliced blocks queried
// with the same hashes, with the per-block scores summed.

// Segments is a read view over one or more parts. It holds no copy of
// their state — every sum is taken when asked — so it is cheap to build and
// never goes stale. Accounting that models storage (page charges, cold-page
// residency) stays on the parts; the AND and count-call tallies go to the
// view's sink.
type Segments struct {
	parts []*BBS
	stats *iostat.Stats
	obs   *obs.Registry // nil unless the view was built WithObserver
}

// NewSegments builds a view over parts, which must share one hash scheme
// (equal m and k; the hash family itself is the caller's contract, as for
// Load). A nil stats falls back to part 0's sink.
func NewSegments(parts []*BBS, stats *iostat.Stats) (*Segments, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sigfile: view over zero segments")
	}
	first := parts[0]
	for i, p := range parts[1:] {
		if p.M() != first.M() || p.hasher.K() != first.hasher.K() {
			return nil, fmt.Errorf("sigfile: segment %d has m=%d k=%d, segment 0 has m=%d k=%d",
				i+1, p.M(), p.hasher.K(), first.M(), first.hasher.K())
		}
	}
	if stats == nil {
		stats = first.stats
	}
	return &Segments{parts: parts, stats: stats}, nil
}

// Parts returns the segments' indexes, in segment order.
func (s *Segments) Parts() []*BBS { return s.parts }

// Hasher returns the hash scheme every segment was built with.
func (s *Segments) Hasher() sighash.Hasher { return s.parts[0].hasher }

// M returns the signature width in bits (the number of slices).
func (s *Segments) M() int { return s.parts[0].M() }

// Len returns the number of rows across every segment.
func (s *Segments) Len() int {
	n := 0
	for _, p := range s.parts {
		n += p.n
	}
	return n
}

// Live returns the number of non-deleted rows across every segment.
func (s *Segments) Live() int {
	n := 0
	for _, p := range s.parts {
		n += p.Live()
	}
	return n
}

// Stats returns the sink the view charges its ANDs and count calls to.
func (s *Segments) Stats() *iostat.Stats { return s.stats }

// WithObserver returns a copy of the view that reports to o (nil: to no
// one): CountIntoBuf then accounts its AND kernels, depths and slice
// touches, and the storage gauges are published once. Neither the view nor
// its parts are modified, so concurrent runs over shared parts never write
// to shared memory.
func (s *Segments) WithObserver(o *obs.Registry) *Segments {
	c := *s
	c.obs = o
	c.publishStorage()
	return &c
}

// publishStorage pushes the storage gauges, summed over the segments, to
// the attached registry, if any.
func (s *Segments) publishStorage() {
	if s.obs == nil {
		return
	}
	var resident int64
	var dense, sparse, rle int
	for _, p := range s.parts {
		resident += p.ResidentSliceBytes()
		d, sp, r := p.EncodingCounts()
		dense, sparse, rle = dense+d, sparse+sp, rle+r
	}
	s.obs.SetIndexStorage(s.TotalBytes(), resident, dense, sparse, rle)
}

// Items returns every item present in at least one segment, ascending.
// Round-robin shards hold nearly the same alphabet, so the union starts
// from segment 0's sorted list and sorts again only when another segment
// adds an item.
func (s *Segments) Items() []int32 {
	first := s.parts[0]
	out := first.Items()
	sorted := len(out)
	for _, p := range s.parts[1:] {
		//lint:ignore determinism the sort below imposes the order the map range lacks
		for it := range p.itemCounts {
			if _, ok := first.itemCounts[it]; !ok {
				out = append(out, it)
			}
		}
	}
	if len(out) > sorted {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// ExactCount returns the exact support of the 1-itemset {item}, summed
// over the segments.
func (s *Segments) ExactCount(item int32) int {
	c := 0
	for _, p := range s.parts {
		c += p.itemCounts[item]
	}
	return c
}

// sliceOnes returns slice p's popcount summed over the segments.
func (s *Segments) sliceOnes(p int) int {
	c := 0
	for _, b := range s.parts {
		c += b.sliceOnes[p]
	}
	return c
}

// OrderRarestFirst reorders slice positions in place by ascending summed
// popcount, ties broken by ascending position — the order a single index
// over every row would pick, so it is deterministic for a given state.
// AND-ing rarest-first maximizes the early exit: the sparsest slices pull
// the running estimate down fastest, and AND is commutative, so the
// surviving bits — and therefore every result — are unchanged. Insertion
// sort: position lists are short, and each summed popcount is taken once.
func (s *Segments) OrderRarestFirst(pos []int) {
	var buf [64]int // k positions per item: room for a 16-itemset without allocating
	ones := buf[:0]
	if len(pos) > len(buf) {
		ones = make([]int, 0, len(pos))
	}
	for _, p := range pos {
		ones = append(ones, s.sliceOnes(p))
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0; j-- {
			if ones[j] > ones[j-1] || (ones[j] == ones[j-1] && pos[j] > pos[j-1]) {
				break
			}
			pos[j], pos[j-1] = pos[j-1], pos[j]
			ones[j], ones[j-1] = ones[j-1], ones[j]
		}
	}
}

// SliceBytes returns the logical size of one slice over every row, as if
// the segments were one dense index; memory budgeting (the adaptive fold
// width) reads this, so a budget means the same thing at any shard count.
func (s *Segments) SliceBytes() int64 { return int64((s.Len() + 7) / 8) }

// TotalBytes returns the logical size of all slices over every row.
func (s *Segments) TotalBytes() int64 { return s.SliceBytes() * int64(s.M()) }

// MaxTransactionItems returns the largest distinct-item count among the
// rows of every segment.
func (s *Segments) MaxTransactionItems() int {
	m := 0
	for _, p := range s.parts {
		m = max(m, p.maxTxnItems)
	}
	return m
}

// AverageSignatureBits returns the mean number of set bits per row
// signature across every segment.
func (s *Segments) AverageSignatureBits() float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	total := 0
	for _, p := range s.parts {
		for _, c := range p.sliceOnes {
			total += c
		}
	}
	return float64(total) / float64(n)
}

// ChargeColdRead charges each segment's not-yet-resident index pages (see
// BBS.ChargeColdRead); residency is tracked per part.
func (s *Segments) ChargeColdRead() {
	for _, p := range s.parts {
		p.ChargeColdRead()
	}
}

// ChargeFullRead charges one sequential pass over every segment.
func (s *Segments) ChargeFullRead() {
	for _, p := range s.parts {
		p.ChargeFullRead()
	}
}

// EvictCache forgets every segment's buffer-pool residency.
func (s *Segments) EvictCache() {
	for _, p := range s.parts {
		p.EvictCache()
	}
}

// ChargeSliceReads charges n slice reads in every segment — an ad-hoc
// query reads its signature's slices from each part.
func (s *Segments) ChargeSliceReads(n int) {
	for _, p := range s.parts {
		p.ChargeSliceReads(n)
	}
}

// NewVec returns a zeroed residual shaped for the view. Allocates.
func (s *Segments) NewVec() *Vec {
	v := &Vec{segs: make([]*bitvec.Vector, len(s.parts)), ones: make([]int, len(s.parts))}
	for i, p := range s.parts {
		v.segs[i] = bitvec.New(p.n)
	}
	return v
}

// NewResult returns a residual marking every live row — the identity for
// slice AND-ing, as BBS.NewResult is for one index. Allocates.
func (s *Segments) NewResult() *Vec {
	v := s.NewVec()
	s.resetLive(v)
	return v
}

// resetLive overwrites dst with the live rows of every segment and returns
// their count.
func (s *Segments) resetLive(dst *Vec) int {
	est := 0
	for i, p := range s.parts {
		seg := dst.segs[i]
		seg.Grow(p.n)
		if p.live != nil {
			seg.CopyFrom(p.live)
		} else {
			seg.SetAll()
		}
		dst.ones[i] = p.Live()
		est += dst.ones[i]
	}
	return est
}

// AndSlice ANDs slice p of every segment into that segment's sub-vector of
// dst and returns the summed popcount — one step of the AND chain, counted
// as one slice AND whatever the segment count. A segment already at zero
// stays zero under any AND, so its kernel is skipped. The kernel dispatch
// is BBS.AndSlice's, without its per-part accounting.
//
//lint:hotpath
func (s *Segments) AndSlice(dst *Vec, p int) int {
	s.stats.AddSliceAnd()
	est := 0
	for i, b := range s.parts {
		if dst.ones[i] == 0 {
			continue
		}
		var c int
		if v := b.denseVec[p]; v != nil {
			c = dst.segs[i].AndCountZX(v)
		} else {
			c = b.slices[p].AndCountInto(dst.segs[i])
		}
		dst.ones[i] = c
		est += c
	}
	return est
}

// TallyAnd records, in k, the kernels the next AndSlice(dst, p) will run:
// per segment, whether the accumulator takes the sparse or dense walk, how
// many words it visits, and the source slice's encoding. Telemetry only; it
// reads maintained state and never scans.
func (s *Segments) TallyAnd(k *obs.KernelSample, dst *Vec, p int) {
	for i, b := range s.parts {
		if dst.ones[i] == 0 {
			continue
		}
		words, sparse := dst.segs[i].WordStats()
		if sparse {
			k.AndsSparse++
			k.WordsSparse += int64(words)
		} else {
			k.AndsDense++
			k.WordsDense += int64(words)
		}
		// The dense fast-path entry is the one AndSlice loads next anyway;
		// only a compressed or cold slice needs its header read.
		if b.denseVec[p] != nil {
			k.AndsEncDense++
		} else {
			k.CountEncoding(int(b.slices[p].Encoding()))
		}
	}
}

// CountItemSet estimates the itemset's support across every segment (paper
// Fig. 1, summed per Lemma 4 over disjoint rows, so it never undercounts).
// The returned residual marks the candidate rows, segment by segment; it is
// freshly allocated.
func (s *Segments) CountItemSet(items []int32) (int, *Vec) {
	v := s.NewVec()
	var posBuf []int
	return s.CountIntoBuf(v, items, &posBuf), v
}

// CountIntoBuf is the AND chain every estimate outside the enumeration
// runs: dst is overwritten with the live rows, the signature's slices are
// AND-ed in rarest-first order (summed popcounts; a pure ordering change,
// since AND commutes and the early exit fires only at zero, where dst is
// all-zero under any order), and the summed estimate is returned. *posBuf
// is caller-owned scratch, reused across calls.
//
// With an observer attached the same loop tallies its kernels, batched
// into one flush per chain, and marks the selected slices as touched for
// the tiering pass; a traced multi-segment view also emits one shardcount
// event per segment.
//
//lint:hotpath
func (s *Segments) CountIntoBuf(dst *Vec, items []int32, posBuf *[]int) int {
	s.stats.AddCountCall()
	est := s.resetLive(dst)
	*posBuf = sighash.AppendSignatureBits((*posBuf)[:0], s.Hasher(), items)
	pos := *posBuf
	s.OrderRarestFirst(pos)
	var k obs.KernelSample
	done := 0
	for _, p := range pos {
		if s.obs != nil {
			s.TallyAnd(&k, dst, p)
		}
		est = s.AndSlice(dst, p)
		done++
		if est == 0 {
			break
		}
		// Rarest-first makes the estimate collapse after an AND or two;
		// promoting the accumulator then lets the rest of the chain walk
		// only the surviving words (bits-identical either way).
		dst.MaybeSummarize()
	}
	if s.obs != nil {
		s.observeChain(k, dst, items, pos, done)
	}
	return est
}

// observeChain flushes one CountIntoBuf chain's telemetry: the kernel
// tallies, the chain depth, the slice touches that rank the hot tier (every
// selected slice counts, whether or not the early exit cut the ANDs short),
// and, traced over several segments, each segment's share of the estimate.
func (s *Segments) observeChain(k obs.KernelSample, dst *Vec, items []int32, pos []int, done int) {
	k.Evals = 1
	if done < len(pos) {
		k.EarlyExits = 1
	}
	s.obs.TouchSlices(pos)
	s.obs.AddKernel(k)
	s.obs.ObserveAndDepth(int64(done))
	if len(s.parts) > 1 && s.obs.Tracing() {
		for i, c := range dst.ones {
			s.obs.Emit(obs.Event{Kind: "shardcount", Subtree: -1, Shard: obs.ShardTag(i), Items: items, Est: c})
		}
	}
}

// Fold builds the memory-resident MemBBS of the paper's adaptive filtering
// (see BBS.Fold) segment by segment: the fold maps each row's signature to
// a narrower one, so folding every part with the same width is the fold of
// all the rows. The preprocessing pass is charged per segment.
func (s *Segments) Fold(keep int) (*Segments, error) {
	if err := checkFoldWidth(keep, s.M()); err != nil {
		return nil, err
	}
	s.ChargeFullRead()
	parts := make([]*BBS, len(s.parts))
	for i, p := range s.parts {
		parts[i] = p.fold(keep)
	}
	f, err := NewSegments(parts, s.stats)
	if err != nil {
		return nil, err
	}
	return f.WithObserver(s.obs), nil // the MemBBS inherits the run's telemetry
}

// Vec is a residual over a Segments view: one sub-vector per segment, each
// indexed by that segment's local rows, plus each sub-vector's popcount,
// which every mutator keeps current so sums, promotions and zero-skips
// never rescan.
type Vec struct {
	segs []*bitvec.Vector
	ones []int
}

// VecOf wraps per-segment vectors into a residual, counting each one.
func VecOf(segs ...*bitvec.Vector) *Vec {
	v := &Vec{segs: segs, ones: make([]int, len(segs))}
	for i, sv := range segs {
		v.ones[i] = sv.Count()
	}
	return v
}

// Segments returns the number of segments.
func (v *Vec) Segments() int { return len(v.segs) }

// Segment returns segment i's sub-vector; callers must not modify it.
func (v *Vec) Segment(i int) *bitvec.Vector { return v.segs[i] }

// SegmentCount returns the number of set bits in segment i.
func (v *Vec) SegmentCount(i int) int { return v.ones[i] }

// Len returns the number of rows across every segment.
func (v *Vec) Len() int {
	n := 0
	for _, sv := range v.segs {
		n += sv.Len()
	}
	return n
}

// Count returns the number of set bits across every segment.
func (v *Vec) Count() int {
	c := 0
	for _, o := range v.ones {
		c += o
	}
	return c
}

// CopyFrom makes v an exact copy of other, reusing v's storage.
func (v *Vec) CopyFrom(other *Vec) {
	for i, sv := range other.segs {
		v.segs[i].CopyFrom(sv)
		v.ones[i] = other.ones[i]
	}
}

// AndCount replaces v with v AND other, segment by segment, and returns the
// summed popcount. The shapes must match.
func (v *Vec) AndCount(other *Vec) int {
	c := 0
	for i, sv := range v.segs {
		v.ones[i] = sv.AndCount(other.segs[i])
		c += v.ones[i]
	}
	return c
}

// MaybeSummarize promotes each segment that is sparse enough to the
// summary-guided AND kernel (see bitvec.MaybeSummarize), judged by that
// segment's own popcount.
func (v *Vec) MaybeSummarize() {
	for i, sv := range v.segs {
		sv.MaybeSummarize(v.ones[i])
	}
}

// ForEachSet calls fn with every set row as (segment, local row), segment
// by segment and ascending within each — the block order a concatenation
// of the segments would have. If fn returns false, iteration stops.
func (v *Vec) ForEachSet(fn func(seg, local int) bool) {
	for s, sv := range v.segs {
		if v.ones[s] == 0 {
			continue
		}
		stop := false
		sv.ForEachSet(func(local int) bool {
			if !fn(s, local) {
				stop = true
			}
			return !stop
		})
		if stop {
			return
		}
	}
}

// VecPool is a concurrency-safe free list of residuals shaped for one view.
// A residual is pooled whole, with its per-segment vectors attached, so the
// miners' allocation-free discipline holds at any segment count at the cost
// of one pool operation per Get or Put. Residuals handed out by Get have
// unspecified contents; callers overwrite them (CopyFrom) before use.
type VecPool struct {
	lens []int // each segment's length in bits
	p    sync.Pool

	gets   atomic.Int64 // residuals handed out
	misses atomic.Int64 // gets that had to allocate a fresh residual
}

// NewPool returns a residual pool shaped for the view.
func (s *Segments) NewPool() *VecPool {
	p := &VecPool{lens: make([]int, len(s.parts))}
	for i, b := range s.parts {
		p.lens[i] = b.n
	}
	p.p.New = func() any {
		p.misses.Add(1)
		v := &Vec{segs: make([]*bitvec.Vector, len(p.lens)), ones: make([]int, len(p.lens))}
		for i, n := range p.lens {
			v.segs[i] = bitvec.New(n)
		}
		return v
	}
	return p
}

// Get returns a residual of the pool's shape with unspecified contents.
func (p *VecPool) Get() *Vec {
	p.gets.Add(1)
	return p.p.Get().(*Vec)
}

// Put returns a residual to the pool; nil or foreign-shaped residuals are
// dropped, so callers may Put unconditionally.
func (p *VecPool) Put(v *Vec) {
	if v == nil || len(v.segs) != len(p.lens) {
		return
	}
	for i, sv := range v.segs {
		if sv.Len() != p.lens[i] {
			return
		}
	}
	p.p.Put(v)
}

// Counters returns the pool's lifetime traffic: residuals handed out, of
// which misses were fresh allocations.
func (p *VecPool) Counters() (gets, misses int64) {
	return p.gets.Load(), p.misses.Load()
}
