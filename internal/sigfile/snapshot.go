package sigfile

import (
	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
)

// Snapshot isolation for the serving layer.
//
// A served index interleaves mining queries with write batches. Rebuilding
// or deep-copying an index per batch is out of the question (m slices of n
// bits each), so BBS supports O(m) copy-on-write snapshots instead:
// Snapshot captures the slice pointer table and the value state, and marks
// everything shared on the master. The master then clones a slice, the live
// mask, or the 1-itemset counter map the first time it mutates each one
// after the snapshot — writes after a snapshot pay only for what they
// touch, which is exactly the paper's selling point for a dynamic index
// (appending sets at most |items|·k bits).
//
// The contract has three parts:
//
//   - a snapshot is immutable: never call Insert, Delete, or Save on it;
//   - the master is single-writer: Snapshot and all mutations must be
//     issued from one goroutine (the serving commit loop);
//   - concurrent readers of one snapshot each take a QueryClone, because
//     mining mutates a per-run accounting field (cold-page residency) on
//     the receiver.

// Epoch returns the index's write epoch: the number of applied write
// batches since the process opened it. The serving layer bumps it once per
// batch and keys its query cache on it. Epochs are in-memory only — a
// freshly loaded index starts at 0 — which is sound because the query
// cache is process-local too.
func (b *BBS) Epoch() uint64 { return b.epoch }

// BumpEpoch advances the write epoch by one and returns the new value.
// Call it from the single writer after applying a batch of mutations.
func (b *BBS) BumpEpoch() uint64 {
	b.epoch++
	return b.epoch
}

// Snapshot returns an immutable copy-on-write view of the index at the
// current epoch, in O(m) time and memory. The snapshot shares every slice,
// the live mask, and the counter map with the master until the master
// mutates them; the per-slice popcounts are small and copied eagerly.
// Only the single writer may call Snapshot.
func (b *BBS) Snapshot() *BBS {
	s := &BBS{
		hasher:      b.hasher,
		slices:      append([]*bitvec.Slice(nil), b.slices...),
		denseVec:    append([]*bitvec.Vector(nil), b.denseVec...),
		n:           b.n,
		compress:    b.compress,
		sliceOnes:   append([]int(nil), b.sliceOnes...),
		itemCounts:  b.itemCounts,
		live:        b.live,
		deleted:     b.deleted,
		coldPages:   b.coldPages,
		maxTxnItems: b.maxTxnItems,
		epoch:       b.epoch,
		stats:       b.stats,
	}
	if b.cow == nil {
		b.cow = make([]bool, len(b.slices))
	}
	for i := range b.cow {
		b.cow[i] = true
	}
	b.cowLive = b.live != nil
	b.cowItems = true
	return s
}

// QueryClone returns a shallow copy of the index for one mining run. The
// clone shares the slices, live mask, and counters (read-only on the query
// path) but owns the mutable per-run field — the cold-page residency
// counter — so any number of concurrent miners can run
// against one snapshot without writing to shared memory. A non-nil stats
// redirects the clone's accounting; atomics inside iostat.Stats make a
// shared sink safe.
func (b *BBS) QueryClone(stats *iostat.Stats) *BBS {
	c := *b
	c.cow = nil
	c.cowLive = false
	c.cowItems = false
	if stats != nil {
		c.stats = stats
	}
	return &c
}

// mutableSlice returns slice p ready for mutation, cloning it first if a
// snapshot shares it. The clone preserves the encoding, so appends to a
// compressed snapshot-shared slice stay compressed. A cold slice thaws to
// residency first — cold payloads are immutable by construction, and the
// freshly decoded slice is shared with no snapshot (snapshots hold the old
// header, which keeps faulting the unchanged cold extent).
func (b *BBS) mutableSlice(p int) *bitvec.Slice {
	s := b.slices[p]
	if s.IsCold() {
		s = s.Thaw()
		b.slices[p] = s
		if b.cow != nil {
			b.cow[p] = false
		}
		return s
	}
	if b.cow != nil && b.cow[p] {
		s = s.Clone()
		b.slices[p] = s
		b.cow[p] = false
	}
	return s
}

// mutableLive returns the live mask ready for mutation, cloning it first if
// a snapshot shares it. The caller must have established b.live != nil.
func (b *BBS) mutableLive() *bitvec.Vector {
	if b.cowLive {
		b.live = b.live.Clone()
		b.cowLive = false
	}
	return b.live
}

// mutableItemCounts returns the 1-itemset counter map ready for mutation,
// cloning it first if a snapshot shares it.
func (b *BBS) mutableItemCounts() map[int32]int {
	if b.cowItems {
		fresh := make(map[int32]int, len(b.itemCounts))
		//lint:ignore determinism map-to-map copy; insertion order cannot be observed
		for it, c := range b.itemCounts {
			fresh[it] = c
		}
		b.itemCounts = fresh
		b.cowItems = false
	}
	return b.itemCounts
}
