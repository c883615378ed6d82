// Package shard partitions the BBS horizontally: N self-contained shards,
// each owning its own slices, exact 1-itemset counters, per-slice popcounts,
// transaction store and epoch. Transactions are routed round-robin by global
// ordinal — position g lives in shard g mod N at local position g div N —
// so the shards stay within one row of each other and a global position maps
// to its shard with two integer ops.
//
// The support of an itemset is a sum over disjoint transaction sets, so
// every read — an ad-hoc count or a full mining run — binds to the shards
// in place as the segments of one sigfile.Segments view: each AND step runs
// slice p in every shard and sums the popcounts, and each probe goes to the
// owning shard's store. Nothing is copied, so a tiered shard keeps faulting
// its cold pages through the shared pool, and every mined pattern, support,
// exactness flag and funnel counter is byte-identical to Shards:1 because
// all of them are functions of per-row predicates and their sums, never of
// row order.
package shard

import (
	"fmt"

	"bbsmine/internal/iostat"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
)

// Index is the sharded BBS: N per-shard sigfile indexes behind round-robin
// routing. Reads bind to the parts in place as segments (sigfile.Segments);
// one shard is the one-segment case of the same code, not a separate path.
type Index struct {
	parts []*sigfile.BBS
}

// NewIndex returns an empty sharded index: shards parts sharing one hasher
// and one accounting sink.
func NewIndex(h sighash.Hasher, shards int, stats *iostat.Stats) (*Index, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	parts := make([]*sigfile.BBS, shards)
	for i := range parts {
		parts[i] = sigfile.New(h, stats)
	}
	return &Index{parts: parts}, nil
}

// FromParts wraps existing per-shard indexes. The parts must satisfy the
// round-robin length invariant (each shard within one row of the next —
// part i holds ceil((n-i)/N) rows), or global positions would not route.
func FromParts(parts []*sigfile.BBS) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no parts")
	}
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	for i, p := range parts {
		want := (n - i + len(parts) - 1) / len(parts)
		if p.Len() != want {
			return nil, fmt.Errorf("shard: part %d holds %d rows, round-robin layout over %d rows needs %d",
				i, p.Len(), n, want)
		}
	}
	return &Index{parts: parts}, nil
}

// Shards returns the shard count N.
func (x *Index) Shards() int { return len(x.parts) }

// Part returns shard s's index.
func (x *Index) Part(s int) *sigfile.BBS { return x.parts[s] }

// Parts returns every shard's index, in shard order — the segments a read
// view binds to.
func (x *Index) Parts() []*sigfile.BBS { return x.parts }

// Len returns the total number of transactions across all shards.
func (x *Index) Len() int {
	n := 0
	for _, p := range x.parts {
		n += p.Len()
	}
	return n
}

// Live returns the total number of non-deleted transactions.
func (x *Index) Live() int {
	n := 0
	for _, p := range x.parts {
		n += p.Live()
	}
	return n
}

// Deleted returns the total number of tombstoned transactions.
func (x *Index) Deleted() int {
	n := 0
	for _, p := range x.parts {
		n += p.Deleted()
	}
	return n
}

// Route maps a global ordinal position to its (shard, local position) pair.
func (x *Index) Route(pos int) (shard, local int) {
	return pos % len(x.parts), pos / len(x.parts)
}

// Insert indexes one transaction at the next global ordinal position and
// returns that position. Routing is round-robin, which keeps the shards
// balanced and the local position equal to pos div N by induction.
func (x *Index) Insert(items []int32) int {
	pos := x.Len()
	x.parts[pos%len(x.parts)].Insert(items)
	return pos
}

// Delete tombstones the transaction at global position pos.
func (x *Index) Delete(pos int, items []int32) error {
	if pos < 0 || pos >= x.Len() {
		return fmt.Errorf("shard: position %d out of range [0,%d)", pos, x.Len())
	}
	s, local := x.Route(pos)
	if err := x.parts[s].Delete(local, items); err != nil {
		return fmt.Errorf("shard: deleting position %d (shard %d local %d): %w", pos, s, local, err)
	}
	return nil
}

// IsLive reports whether the transaction at global position pos is live.
func (x *Index) IsLive(pos int) bool {
	s, local := x.Route(pos)
	return x.parts[s].IsLive(local)
}

// SetCompression sets the adaptive storage policy on every shard and
// re-encodes each shard's slices to match (see sigfile.SetCompression).
// Per-shard, not global: each part picks encodings from its own densities.
func (x *Index) SetCompression(on bool) {
	for _, p := range x.parts {
		p.SetCompression(on)
	}
}

// Compressed reports whether the adaptive storage policy is on. The policy
// is set index-wide, so part 0 speaks for all.
func (x *Index) Compressed() bool { return x.parts[0].Compressed() }

// TotalBytes sums the shards' logical (all-dense) slice sizes.
func (x *Index) TotalBytes() int64 {
	var n int64
	for _, p := range x.parts {
		n += p.TotalBytes()
	}
	return n
}

// ResidentSliceBytes sums the shards' resident slice footprints — the bytes
// the slices actually occupy under their current encodings.
func (x *Index) ResidentSliceBytes() int64 {
	var n int64
	for _, p := range x.parts {
		n += p.ResidentSliceBytes()
	}
	return n
}

// Epochs returns the per-shard epoch vector, in shard order.
func (x *Index) Epochs() []uint64 {
	out := make([]uint64, len(x.parts))
	for i, p := range x.parts {
		out[i] = p.Epoch()
	}
	return out
}
