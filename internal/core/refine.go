package core

import (
	"fmt"

	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/txdb"
)

// sequentialScan verifies candidate patterns by scanning the database
// (algorithm SequentialScan, Section 3.2): as many candidates as fit in
// memory are loaded, one pass counts them, and the process repeats until
// every candidate is verified. It returns the surviving patterns with exact
// supports and the number of false drops.
//
// With cfg.Workers resolving to more than one worker, each batch's counting
// work is sharded: the scan stays a single sequential pass (one producer),
// but the per-transaction candidate matching — the CPU cost of the batch —
// is spread over per-worker counters whose supports are summed. Batch
// boundaries and the returned patterns are identical either way.
func (m *Miner) sequentialScan(candidates []Pattern, cfg Config) ([]Pattern, int, error) {
	workers := cfg.workerCount()
	scanTick := cfg.Observe.Tick()
	var verified []Pattern
	drops := 0
	for start := 0; start < len(candidates); {
		if err := cfg.ctxErr(); err != nil {
			return nil, 0, err
		}
		end := m.batchEnd(candidates, start, cfg.MemoryBudget)
		sup, err := m.countBatch(candidates[start:end], workers)
		if err != nil {
			return nil, 0, fmt.Errorf("core: verification scan: %w", err)
		}
		if cfg.Observe != nil {
			var tx, matched int64
			for _, c := range sup.counters {
				ctx, cm := c.Tally()
				tx += ctx
				matched += cm
			}
			cfg.Observe.AddScanBatch(tx, matched)
		}
		for _, c := range candidates[start:end] {
			s := sup.Support(c.Items)
			if s >= cfg.MinSupport {
				verified = append(verified, Pattern{Items: c.Items, Support: s, Exact: true})
			} else {
				drops++
				m.stats.AddFalseDrop()
			}
		}
		start = end
	}
	cfg.Observe.PhaseDone(obs.PhaseScanRefine, scanTick)
	return verified, drops, nil
}

// countBatch runs the verification pass over one batch of candidates and
// returns the support lookup, sharding across workers when configured.
func (m *Miner) countBatch(batch []Pattern, workers int) (*batchSupport, error) {
	if workers > 1 && len(batch) > 1 {
		return m.countBatchParallel(batch, workers)
	}
	counter := mining.NewCounter()
	for _, c := range batch {
		counter.Add(c.Items)
	}
	if err := m.scanLive(func(tx txdb.Transaction) { counter.CountTransaction(tx.Items) }); err != nil {
		return nil, err
	}
	return &batchSupport{counters: []*mining.Counter{counter}}, nil
}

// scanLive makes one sequential pass over every segment's store, in segment
// order, handing fn each live transaction. Support counting is a sum over
// rows, so the segment order never shows in a result.
func (m *Miner) scanLive(fn func(tx txdb.Transaction)) error {
	for s, store := range m.stores {
		part := m.idx.Parts()[s]
		if err := store.Scan(func(pos int, tx txdb.Transaction) bool {
			if part.IsLive(pos) {
				fn(tx)
			}
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}

// batchEnd returns the end of the batch starting at start such that the
// batch stays within the memory budget (at least one candidate is always
// taken so progress is guaranteed).
func (m *Miner) batchEnd(candidates []Pattern, start int, budget int64) int {
	var resident int64
	end := start
	for end < len(candidates) {
		c := candidates[end]
		size := int64(4*len(c.Items) + 48)
		if budget > 0 && resident+size > budget && end > start {
			break
		}
		resident += size
		end++
	}
	return end
}
