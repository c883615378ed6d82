package sigfile

import (
	"fmt"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
)

// Merge builds one BBS covering the rows of every part, in block order:
// part 0's rows occupy positions [0, n0), part 1's rows [n0, n0+n1), and so
// on. Every part must have been built with the same hash scheme (same m and
// k over the same hash family), which is the caller's responsibility beyond
// the m/k equality checked here — exactly the contract Load already has.
//
// Merge is an export, not a read path: mining and counting bind to the
// parts in place (see Segments), and a merge thaws every cold slice to
// build its copy. Support counting is a sum over disjoint row sets (paper
// Corollary 1 applies per shard), so a block concatenation of the shards is
// a row permutation of the unsharded index, and every count, estimate and
// mined pattern over it is identical. The merged index shares no storage
// with the parts: the parts may be copy-on-write snapshots, and the result
// is a plain private index.
//
// The per-slice popcounts, exact 1-itemset counts, deleted counts and the
// max-transaction-width statistic all merge by summation (or max), so the
// merged index drives the rarest-first AND ordering and the adaptive fold
// width exactly as the unsharded index would.
func Merge(parts []*BBS, stats *iostat.Stats) (*BBS, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sigfile: merge of zero parts")
	}
	first := parts[0]
	for i, p := range parts[1:] {
		if p.M() != first.M() || p.hasher.K() != first.hasher.K() {
			return nil, fmt.Errorf("sigfile: merge part %d has m=%d k=%d, part 0 has m=%d k=%d",
				i+1, p.M(), p.hasher.K(), first.M(), first.hasher.K())
		}
	}

	total := 0
	deleted := 0
	offsets := make([]int, len(parts))
	for i, p := range parts {
		offsets[i] = total
		total += p.n
		deleted += p.deleted
	}

	b := New(first.hasher, stats)
	b.n = total
	b.deleted = deleted
	b.compress = first.compress
	for _, p := range parts {
		if p.maxTxnItems > b.maxTxnItems {
			b.maxTxnItems = p.maxTxnItems
		}
		for _, it := range p.Items() { // ascending, so the merge order is deterministic
			b.itemCounts[it] += p.itemCounts[it]
		}
	}

	words := (total + 63) / 64
	for j := 0; j < first.M(); j++ {
		dst := make([]uint64, words)
		ones := 0
		for i, p := range parts {
			// Each part blits its own encoding directly — a sparse part
			// sets its positions, an RLE part its runs, a dense part ORs
			// words — so mixed-encoding shards merge without materializing.
			// Bits past a part's logical length are zero by construction.
			p.slices[j].BlitInto(dst, offsets[i])
			ones += p.sliceOnes[j]
		}
		var v bitvec.Vector
		if err := v.SetWords(dst, total); err != nil {
			return nil, fmt.Errorf("sigfile: merge slice %d: %w", j, err)
		}
		// The parts' popcounts sum over disjoint row blocks, so the merged
		// slice wraps without a recount; the encoding is re-picked from the
		// merged contents when the policy asks for it.
		b.slices[j] = bitvec.DenseSliceWithOnes(&v, ones).Recompress(total, b.compress)
		b.refreshDense(j)
		b.sliceOnes[j] = ones
	}

	if deleted > 0 {
		live := bitvec.New(0)
		for _, p := range parts {
			if p.live == nil {
				for r := 0; r < p.n; r++ {
					live.Append(true)
				}
				continue
			}
			for r := 0; r < p.n; r++ {
				live.Append(p.live.Get(r))
			}
		}
		b.live = live
	}
	return b, nil
}
