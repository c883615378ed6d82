package core

import (
	"fmt"
	"sort"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// Count answers the paper's first ad-hoc query (Section 4.9): the number of
// occurrences of an arbitrary itemset — frequent or not. The estimate comes
// from one CountItemSet over the BBS; the exact count probes only the
// transactions whose bits survive. Apriori must rescan the database for
// this; FP-tree cannot answer it at all (it stores no information about
// non-frequent patterns).
func (m *Miner) Count(itemset []txdb.Item) (est, exact int, err error) {
	return m.CountConstrained(itemset, nil)
}

// CountConstrained answers the paper's second ad-hoc query: the count of an
// itemset among the transactions marked in the constraint (e.g. "TIDs
// divisible by 7"). A nil constraint means no restriction. Every segment
// ANDs its own slices, the estimates add, and each candidate row is probed
// in its own segment's store.
func (m *Miner) CountConstrained(itemset []txdb.Item, constraint *sigfile.Vec) (est, exact int, err error) {
	sorted := append([]txdb.Item(nil), itemset...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := m.idx
	if constraint != nil {
		if err := m.checkConstraint(constraint); err != nil {
			return 0, 0, err
		}
	}

	// An ad-hoc query touches only the slices of the itemset's signature
	// (plus the constraint slice) in each segment; charge those reads —
	// this is exactly the I/O advantage over Apriori's full database scan
	// (Figure 13).
	idx.ChargeSliceReads(len(sighash.SignatureBits(idx.Hasher(), sorted)))
	est, vec := idx.CountItemSet(sorted)
	if constraint != nil {
		idx.ChargeSliceReads(1)
		if est > 0 {
			m.stats.AddSliceAnd()
			est = vec.AndCount(constraint)
		}
	}
	if est == 0 {
		return 0, 0, nil
	}
	var getErr error
	vec.ForEachSet(func(seg, local int) bool {
		tx, err := m.stores[seg].Get(local)
		m.stats.AddProbe()
		if err != nil {
			getErr = err
			return false
		}
		if tx.Contains(sorted) {
			exact++
		}
		return true
	})
	if getErr != nil {
		return 0, 0, fmt.Errorf("core: probing: %w", getErr)
	}
	return est, exact, nil
}

// checkConstraint rejects a constraint not shaped for the miner's segments
// (built over another database, or before rows were appended).
func (m *Miner) checkConstraint(c *sigfile.Vec) error {
	parts := m.idx.Parts()
	ok := c.Segments() == len(parts)
	for s := 0; ok && s < len(parts); s++ {
		ok = c.Segment(s).Len() == parts[s].Len()
	}
	if !ok {
		return fmt.Errorf("core: constraint length %d != index length %d", c.Len(), m.idx.Len())
	}
	return nil
}

// BuildConstraint materializes a one-segment constraint from a predicate
// over a store's transactions, e.g. "TID divisible by 7". It costs one
// sequential pass; the paper's Section 3.4 notes that constructing slices
// for arbitrary constraints is outside its scope, so this helper keeps it
// explicit and reusable — build once, query many times. Miner.Constraint
// builds one over every segment.
func BuildConstraint(store txdb.Store, pred func(pos int, tx txdb.Transaction) bool) (*sigfile.Vec, error) {
	return buildConstraint([]txdb.Store{store}, pred)
}

// Constraint materializes a constraint over every segment of the miner, one
// sequential pass per segment store; the result is opaque to callers and
// valid until a segment grows.
func (m *Miner) Constraint(pred func(tx txdb.Transaction) bool) (*sigfile.Vec, error) {
	return buildConstraint(m.stores, func(_ int, tx txdb.Transaction) bool { return pred(tx) })
}

// buildConstraint builds a constraint with one segment per store; pred sees
// each transaction's position within its own store.
func buildConstraint(stores []txdb.Store, pred func(pos int, tx txdb.Transaction) bool) (*sigfile.Vec, error) {
	segs := make([]*bitvec.Vector, len(stores))
	for s, store := range stores {
		//lint:ignore pooledvec one-off cold-path build; needs a zeroed vector and no run (or pool) is in scope
		v := bitvec.New(store.Len())
		err := store.Scan(func(pos int, tx txdb.Transaction) bool {
			if pred(pos, tx) {
				v.Set(pos)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("core: building constraint: %w", err)
		}
		segs[s] = v
	}
	return sigfile.VecOf(segs...), nil
}

// MineApprox is the paper's future-work extension (Section 5): filtering
// with no refinement phase at all. The result is a superset of the frequent
// patterns whose supports are BBS estimates (never undercounts); callers
// trade false drops for the shortest possible running time. The single
// filter is used so the answer depends only on the index. workers sizes the
// worker pool as Config.Workers does (0 means one per CPU); the result is
// the same for every value.
func (m *Miner) MineApprox(minSupport, maxLen, workers int) ([]Pattern, error) {
	if minSupport <= 0 {
		return nil, fmt.Errorf("core: MinSupport must be positive, got %d", minSupport)
	}
	r := newRun(m, m.idx, Config{MinSupport: minSupport, Scheme: SFS, MaxLen: maxLen, Workers: workers})
	r.filter()
	out := r.uncertain // SFS filtering stores the estimate as the support
	sortPatterns(out)
	return out, nil
}
