// Package sigfile implements the paper's indexing structure: the Bit-Sliced
// Bloom-Filtered Signature File (BBS).
//
// Every transaction is mapped to an m-bit Bloom signature (k hash positions
// per item, via a sighash.Hasher). The file is stored transposed: slice j
// holds bit j of every transaction's signature, so the estimated number of
// transactions containing an itemset is obtained by AND-ing the slices
// selected by the itemset's signature and popcounting the result — algorithm
// CountItemSet (paper Fig. 1). The structure is dynamic and persistent:
// appending a transaction sets at most |items|·k bits and never rewrites
// existing data.
//
// Alongside the slices, a BBS keeps the exact support of every 1-itemset,
// the "additional information" that powers the paper's DualFilter
// (Lemma 5 / Corollary 1).
package sigfile

import (
	"fmt"
	"slices"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
)

// BBS is a bit-sliced Bloom-filtered signature file over n transactions.
type BBS struct {
	hasher sighash.Hasher
	slices []*bitvec.Slice // len == hasher.M(); each slice has up to n bits
	n      int             // transactions indexed so far

	// denseVec[p] is slice p's backing vector when (and only when) slice p
	// is dense, else nil — the AND fast path. Indexing this array costs the
	// same loads the classic all-dense layout paid, where going through the
	// Slice header would add a dependent cache line to every AND. Kept in
	// step by refreshDense at every site that installs or re-encodes a
	// slice; a stale nil is merely slow (the dispatch path is always
	// correct), a stale non-nil is a bug.
	denseVec []*bitvec.Vector

	// compress is the storage policy: when set, Fold, Merge and
	// SetCompression pick each slice's encoding (dense, sparse positions,
	// or run-length) by payload size, and the AND chain runs the
	// direct-on-compressed kernels. When clear every slice is dense — the
	// classic layout. Either way Insert appends under the current encoding
	// with hysteresis (see bitvec.Slice), so a write-heavy phase cannot
	// thrash representations.
	compress bool

	// sliceOnes[p] is the popcount of slice p, maintained incrementally by
	// Insert (and recomputed by Fold and Load). It drives the rarest-first
	// AND ordering: intersecting the sparsest slices first drags the
	// running estimate below τ in the fewest ANDs, so the early exit fires
	// sooner. Deletions do not clear slice bits, so the counts are over the
	// raw slices — exactly what ordering needs, since the live mask is
	// AND-ed before any slice.
	sliceOnes []int

	itemCounts map[int32]int // exact 1-itemset supports

	live    *bitvec.Vector // live-row mask; nil while nothing is deleted
	deleted int

	coldPages int64 // index pages already faulted into the buffer pool

	maxTxnItems int // largest distinct-item count among inserted transactions

	// Copy-on-write bookkeeping (see Snapshot). While cow[p] is set, slice p
	// is shared with at least one snapshot and must be cloned before its
	// first mutation; cowLive and cowItems guard the live mask and the exact
	// 1-itemset counters the same way. All nil/false on an index that has
	// never been snapshotted, so the non-serving paths pay nothing.
	cow      []bool
	cowLive  bool
	cowItems bool

	epoch uint64 // applied write batches; in-memory only, 0 after Load

	// Tiered storage bookkeeping (see tier.go). tierPager is non-nil while
	// Tier has split the slices into hot/cold; tierFile is the sealed cold
	// file backing the cold headers (nil when every slice fit the hot
	// budget); tierReserved is the hot-tier reservation to return at Untier.
	tierPager    *pager.Pager
	tierFile     *pager.File
	tierReserved int64

	stats *iostat.Stats
}

// New returns an empty BBS using the given hasher. A nil stats disables
// accounting.
func New(h sighash.Hasher, stats *iostat.Stats) *BBS {
	if stats == nil {
		stats = &iostat.Stats{}
	}
	m := h.M()
	slices := make([]*bitvec.Slice, m)
	denseVec := make([]*bitvec.Vector, m)
	for i := range slices {
		slices[i] = bitvec.NewDenseSlice(0)
		denseVec[i] = slices[i].DenseVector()
	}
	return &BBS{
		hasher:     h,
		slices:     slices,
		denseVec:   denseVec,
		sliceOnes:  make([]int, m),
		itemCounts: make(map[int32]int),
		stats:      stats,
	}
}

// Hasher returns the hasher the index was built with.
func (b *BBS) Hasher() sighash.Hasher { return b.hasher }

// M returns the signature width in bits (the number of slices).
func (b *BBS) M() int { return len(b.slices) }

// Len returns the number of transactions indexed.
func (b *BBS) Len() int { return b.n }

// Stats returns the accounting sink.
func (b *BBS) Stats() *iostat.Stats { return b.stats }

// Insert indexes one transaction's items at the next ordinal position.
// Position i of every slice corresponds to the i-th inserted transaction,
// which must equal its ordinal position in the backing txdb.Store.
// Items need not be sorted; duplicates contribute once to the exact
// 1-itemset counters.
//
// Slices grow lazily: only the slices this transaction's signature touches
// are lengthened, so a slice nobody has hashed to since the last Snapshot
// stays short — and stays shared with the snapshot. The missing tail is
// logically zero (no transaction set a bit there); the read paths apply it
// through the zero-extending kernels (bitvec.AndCountZX).
func (b *BBS) Insert(items []int32) {
	pos := b.n
	b.n++
	if b.live != nil {
		b.mutableLive().Append(true)
	}
	// Fast path: txdb transactions arrive strictly ascending, so every item
	// is distinct and counts can be bumped directly.
	sorted := true
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		if len(items) > b.maxTxnItems {
			b.maxTxnItems = len(items)
		}
		for _, it := range items {
			b.bumpItemCount(it)
			for _, p := range b.hasher.Positions(it) {
				b.setSliceBit(p, pos)
			}
		}
		return
	}
	seen := make(map[int32]struct{}, len(items))
	for _, it := range items {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		b.bumpItemCount(it)
		for _, p := range b.hasher.Positions(it) {
			b.setSliceBit(p, pos)
		}
	}
	if len(seen) > b.maxTxnItems {
		b.maxTxnItems = len(seen)
	}
}

// bumpItemCount increments one exact 1-itemset counter, cloning the map
// first if a snapshot shares it.
func (b *BBS) bumpItemCount(it int32) {
	b.mutableItemCounts()[it]++
}

// setSliceBit sets bit pos of slice p, keeping the per-slice popcount in
// step. Several items of one transaction can hash to the same slice, so the
// count bumps only on a 0→1 transition. The slice is grown on demand (see
// Insert), cloned first when a snapshot shares it, and appends under its
// current encoding — a compressed slice whose payload outgrows the dense
// layout promotes itself (the hysteresis upper edge).
func (b *BBS) setSliceBit(p, pos int) {
	s := b.mutableSlice(p)
	if s.AppendSet(pos) {
		b.sliceOnes[p]++
	}
	if b.compress {
		// Lower hysteresis edge: a dense slice whose length has outgrown
		// its density demotes to a compressed form, so an index built
		// purely by appends compresses as it grows instead of waiting for
		// the next SetCompression/Fold/Load re-encode pass.
		if r := s.MaybeCompress(); r != s {
			b.slices[p] = r
			s = r
		}
	}
	// The append may have cloned (copy-on-write), promoted, or demoted
	// (hysteresis) the slice; either way the fast-path entry follows it.
	b.denseVec[p] = s.DenseVector()
}

// refreshDense re-derives the AND fast-path entry for slice p. Call after
// installing or re-encoding b.slices[p].
func (b *BBS) refreshDense(p int) {
	b.denseVec[p] = b.slices[p].DenseVector()
}

// SliceOnes returns the popcount of slice p, maintained incrementally.
func (b *BBS) SliceOnes(p int) int { return b.sliceOnes[p] }

// OrderRarestFirst reorders slice positions in place by ascending slice
// popcount, ties broken by ascending position (see
// Segments.OrderRarestFirst, of which this is the one-segment case).
func (b *BBS) OrderRarestFirst(pos []int) {
	parts := [1]*BBS{b}
	view := Segments{parts: parts[:]}
	view.OrderRarestFirst(pos)
}

// ExactCount returns the exact support of the 1-itemset {item}, maintained
// incrementally at insert time. This is the DualFilter's side information.
func (b *BBS) ExactCount(item int32) int { return b.itemCounts[item] }

// Items returns every item that appears in at least one indexed transaction,
// in ascending order. Allocates a fresh slice.
func (b *BBS) Items() []int32 {
	out := make([]int32, 0, len(b.itemCounts))
	//lint:ignore determinism the sort below imposes the order the map range lacks
	for it := range b.itemCounts {
		out = append(out, it)
	}
	slices.Sort(out)
	return out
}

// AverageSignatureBits returns the mean number of set bits per transaction
// signature (total set bits across all slices divided by the number of
// transactions). It characterizes the index's density, which the adaptive
// filtering uses to pick a sane fold width. Reads the maintained per-slice
// popcounts, so it costs O(m) rather than a pass over the slice words.
func (b *BBS) AverageSignatureBits() float64 {
	if b.n == 0 {
		return 0
	}
	total := 0
	for _, c := range b.sliceOnes {
		total += c
	}
	return float64(total) / float64(b.n)
}

// MaxTransactionItems returns the largest distinct-item count among the
// inserted transactions — the adaptive filtering keys its fold-width floor
// to it, because the heaviest transaction's signature saturates a
// too-narrow fold and destroys all pruning power.
func (b *BBS) MaxTransactionItems() int { return b.maxTxnItems }

// SliceBytes returns the size of one slice in bytes under the dense layout.
// Memory budgeting and I/O charging both use this logical size — a folded
// in-memory index is dense by construction, and the paper's cost model
// charges page reads over the flat file — so it is independent of the
// compression policy; ResidentSliceBytes reports the actual footprint.
func (b *BBS) SliceBytes() int64 { return int64((b.n + 7) / 8) }

// TotalBytes returns the total logical size of all slices in bytes.
func (b *BBS) TotalBytes() int64 { return b.SliceBytes() * int64(len(b.slices)) }

// ResidentSliceBytes returns the summed payload of every slice under its
// current encoding — the bytes the slices actually occupy in memory, the
// number the compression exists to shrink.
func (b *BBS) ResidentSliceBytes() int64 {
	var total int64
	for _, s := range b.slices {
		total += s.Bytes()
	}
	return total
}

// SliceEncoding reports the physical encoding of slice p.
func (b *BBS) SliceEncoding(p int) bitvec.Encoding { return b.slices[p].Encoding() }

// EncodingCounts returns how many slices are stored dense, sparse, and
// run-length encoded.
func (b *BBS) EncodingCounts() (dense, sparse, rle int) {
	for _, s := range b.slices {
		switch s.Encoding() {
		case bitvec.EncSparse:
			sparse++
		case bitvec.EncRLE:
			rle++
		default:
			dense++
		}
	}
	return dense, sparse, rle
}

// Compressed reports whether the adaptive-encoding policy is on.
func (b *BBS) Compressed() bool { return b.compress }

// SetCompression sets the storage policy and re-picks every slice's
// encoding to match: on, each slice adopts the smallest representation
// that beats the dense layout by the hysteresis margin; off, every slice
// is materialized dense. Call it after a bulk build or load — per-slice
// re-encoding is a full pass — and from the single writer only. Slices
// shared with a snapshot are never mutated: re-encoding installs a fresh
// slice, so snapshots keep reading the old one.
func (b *BBS) SetCompression(on bool) {
	b.compress = on
	for p, s := range b.slices {
		r := s.Recompress(b.n, on)
		if r != s {
			b.slices[p] = r
			if b.cow != nil {
				b.cow[p] = false // freshly built, shared with no snapshot
			}
		}
		b.refreshDense(p)
	}
}

// pagesForBytes converts a contiguous byte extent into whole pages, at
// least one. Slices are stored back to back, so several short slices share
// a page.
func pagesForBytes(n int64) int64 {
	p := (n + iostat.PageSize - 1) / iostat.PageSize
	if p == 0 {
		p = 1
	}
	return p
}

// AndSlice ANDs slice p into dst and returns the popcount of the result.
// dst must have length Len(). This is the primitive the miners use for
// incremental filtering: a child itemset reuses its parent's residual
// vector and only ANDs the new item's slices. It is an in-memory operation;
// reading the slices from storage is charged separately (ChargeFullRead /
// ChargeSliceReads) once per pass, matching the paper's model where the BBS
// is loaded and then operated on with bitwise instructions.
func (b *BBS) AndSlice(dst *bitvec.Vector, p int) int {
	b.stats.AddSliceAnd()
	// Slices grow lazily (see Insert), so slice p may be shorter than dst;
	// every kernel reads the missing tail as zeros. Dense slices — every
	// slice of an uncompressed index — branch straight to the classic
	// AndCountZX here, keeping the call depth of the all-dense layout;
	// compressed ones dispatch to their direct kernels. Identical bits
	// either way.
	if v := b.denseVec[p]; v != nil {
		return dst.AndCountZX(v)
	}
	return b.slices[p].AndCountInto(dst)
}

// ChargeFullRead charges one sequential pass over every slice — the cost of
// streaming through the whole index once. Slices are stored contiguously,
// so the pass costs ceil(TotalBytes / PageSize) pages. Used by the adaptive
// mode, whose passes cannot be cached by definition (memory is scarce).
func (b *BBS) ChargeFullRead() {
	b.stats.AddSlicePages(pagesForBytes(b.TotalBytes()))
}

// ChargeColdRead charges only the index pages not yet faulted into the
// buffer pool. A persistent index in a steady-state system stays resident
// (index pages go through the buffer pool, unlike sequential table scans,
// which use bypass rings), so a re-mine after an append pays only for the
// grown tail. The first call charges the whole index.
func (b *BBS) ChargeColdRead() {
	pages := pagesForBytes(b.TotalBytes())
	if pages > b.coldPages {
		b.stats.AddSlicePages(pages - b.coldPages)
		b.coldPages = pages
	}
}

// EvictCache forgets buffer-pool residency, so the next ChargeColdRead
// pays for the whole index again (used when a memory budget evicts it).
func (b *BBS) EvictCache() { b.coldPages = 0 }

// ChargeSliceReads charges n individual slice reads — the cost of an ad-hoc
// query that touches only the slices of one itemset's signature.
func (b *BBS) ChargeSliceReads(n int) {
	b.stats.AddSlicePages(pagesForBytes(int64(n) * b.SliceBytes()))
}

// NewResult returns a fresh vector of length Len() marking every live
// transaction — the identity for slice AND-ing. With no deletions this is
// all ones; after deletions it is the live-row mask, so every estimate and
// probe automatically excludes tombstoned rows.
func (b *BBS) NewResult() *bitvec.Vector {
	if b.live != nil {
		return b.live.Clone()
	}
	v := bitvec.New(b.n)
	v.SetAll()
	return v
}

// CountItemSet estimates the number of transactions containing the itemset,
// per paper Fig. 1: AND the slices selected by the itemset's signature and
// count the surviving bits. The returned vector marks the candidate
// transactions (its set bits are the ordinal positions Probe fetches); it is
// freshly allocated. By Lemma 4 the estimate never undercounts.
func (b *BBS) CountItemSet(items []int32) (int, *bitvec.Vector) {
	v := b.NewResult()
	n := b.CountInto(v, items)
	return n, v
}

// CountInto is CountItemSet with a caller-provided result vector: dst is
// overwritten with the slice intersection and the estimate is returned.
// Allocates a position scratch per call; loops that estimate many itemsets
// should hold one and use CountIntoBuf.
func (b *BBS) CountInto(dst *bitvec.Vector, items []int32) int {
	var buf []int
	return b.CountIntoBuf(dst, items, &buf)
}

// CountIntoBuf is CountInto with a caller-owned position scratch: *posBuf is
// reused (and grown through the pointer) across calls, so repeated estimates
// allocate nothing after warm-up. It runs the one AND chain every estimate
// shares — Segments.CountIntoBuf over this index as its only segment — so
// the slices are AND-ed rarest-first. dst is grown to Len() if shorter.
func (b *BBS) CountIntoBuf(dst *bitvec.Vector, items []int32, posBuf *[]int) int {
	parts := [1]*BBS{b}
	segs := [1]*bitvec.Vector{dst}
	var ones [1]int
	view := Segments{parts: parts[:], stats: b.stats}
	return view.CountIntoBuf(&Vec{segs: segs[:], ones: ones[:]}, items, posBuf)
}

// CountConstrained is CountItemSet with an additional constraint slice (an
// n-bit vector marking the transactions satisfying an ad-hoc predicate, per
// paper Section 3.4). The constraint is AND-ed after the item slices and
// charged as one slice read.
func (b *BBS) CountConstrained(items []int32, constraint *bitvec.Vector) (int, *bitvec.Vector) {
	if constraint.Len() != b.n {
		panic(fmt.Sprintf("sigfile: constraint length %d != index length %d", constraint.Len(), b.n))
	}
	est, v := b.CountItemSet(items)
	if est > 0 {
		b.stats.AddSliceAnd()
		est = v.AndCount(constraint)
	}
	return est, v
}

// Fold builds the memory-resident MemBBS of the paper's adaptive filtering
// (Section 3.1, preprocessing phase): the first keep slices are retained and
// every slice p >= keep is "rehashed" onto slice p mod keep. The fold ORs
// slices together, which preserves the no-false-miss property (a folded
// query bit is set whenever any contributing original bit was set).
// The returned index shares no storage with the original and uses a hasher
// whose positions are reduced mod keep.
func (b *BBS) Fold(keep int) (*BBS, error) {
	if err := checkFoldWidth(keep, len(b.slices)); err != nil {
		return nil, err
	}
	// Reading every original slice once is the preprocessing pass; charge it.
	b.ChargeFullRead()
	return b.fold(keep), nil
}

func checkFoldWidth(keep, m int) error {
	if keep <= 0 || keep > m {
		return fmt.Errorf("sigfile: fold width %d out of range (1..%d)", keep, m)
	}
	return nil
}

// fold is Fold without the validation, accounting and telemetry.
func (b *BBS) fold(keep int) *BBS {
	fh := &foldedHasher{base: b.hasher, m: keep}
	nb := New(fh, b.stats)
	nb.n = b.n
	nb.compress = b.compress
	for j := 0; j < keep; j++ {
		// Accumulate the fold dense — OR-ing into a compressed form would
		// re-encode per contributor — then pick the folded slice's encoding
		// once, from its final contents. The fold ORs slices together, so
		// the folded popcount cannot be derived from the originals; the
		// wrap recounts it once (the words are still cache-hot).
		acc := b.slices[j].Materialize()
		acc.Grow(b.n) // normalize lazily-grown slices; folded slices are full length
		for p := j + keep; p < len(b.slices); p += keep {
			b.slices[p].OrInto(acc)
		}
		s := bitvec.DenseSliceOf(acc).Recompress(b.n, b.compress)
		nb.slices[j] = s
		nb.refreshDense(j)
		nb.sliceOnes[j] = s.Ones()
	}
	//lint:ignore determinism map-to-map copy; insertion order cannot be observed
	for it, c := range b.itemCounts {
		nb.itemCounts[it] = c
	}
	if b.live != nil {
		nb.live = b.live.Clone()
		nb.deleted = b.deleted
	}
	return nb
}

// foldedHasher reduces a base hasher's positions modulo a smaller m.
type foldedHasher struct {
	base sighash.Hasher
	m    int
}

func (f *foldedHasher) M() int { return f.m }
func (f *foldedHasher) K() int { return f.base.K() }

func (f *foldedHasher) Positions(item int32) []int {
	base := f.base.Positions(item)
	out := make([]int, len(base))
	for i, p := range base {
		out[i] = p % f.m
	}
	return out
}

// ResultSlice exposes slice p read-only for verification passes; the caller
// must not modify it. A compressed slice is materialized (allocating), a
// dense one is aliased. Reading it is charged as one slice read.
func (b *BBS) ResultSlice(p int) *bitvec.Vector {
	b.ChargeSliceReads(1)
	if v := b.slices[p].DenseVector(); v != nil {
		return v
	}
	return b.slices[p].Materialize()
}
