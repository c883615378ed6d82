package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// DB couples a sharded index with per-shard transaction stores: shard s
// owns its own slice file and its own data file, so the two stay in step
// under the same routing. Mining and counting bind to the shards in place
// (see Miner); there is no merged copy to cache or invalidate.
//
// A DB is not safe for concurrent use — it is the library-embedding
// counterpart of bbsmine.Database. The serving layer does not use DB's
// write path; it owns one commit loop per shard instead (internal/serve).
type DB struct {
	idx        *Index
	stores     []txdb.Store
	files      []*txdb.FileStore // nil entries when in-memory
	indexPaths []string          // "" when in-memory
	dir        string            // "" when in-memory
	stats      *iostat.Stats
	hasher     sighash.Hasher
}

// NewMem returns a volatile sharded DB over in-memory stores.
func NewMem(h sighash.Hasher, shards int, stats *iostat.Stats) (*DB, error) {
	if stats == nil {
		stats = &iostat.Stats{}
	}
	idx, err := NewIndex(h, shards, stats)
	if err != nil {
		return nil, err
	}
	db := &DB{
		idx:        idx,
		stores:     make([]txdb.Store, shards),
		files:      make([]*txdb.FileStore, shards),
		indexPaths: make([]string, shards),
		stats:      stats,
		hasher:     h,
	}
	for s := range db.stores {
		db.stores[s] = txdb.NewMemStore(stats)
	}
	return db, nil
}

// Index returns the sharded BBS.
func (db *DB) Index() *Index { return db.idx }

// Shards returns the shard count N.
func (db *DB) Shards() int { return db.idx.Shards() }

// Store returns shard s's transaction store.
func (db *DB) Store(s int) txdb.Store { return db.stores[s] }

// File returns shard s's durable store, nil when in-memory.
func (db *DB) File(s int) *txdb.FileStore { return db.files[s] }

// IndexPath returns where shard s's index persists, "" when in-memory.
func (db *DB) IndexPath(s int) string { return db.indexPaths[s] }

// Dir returns the database directory, "" when in-memory.
func (db *DB) Dir() string { return db.dir }

// Stats returns the shared accounting sink.
func (db *DB) Stats() *iostat.Stats { return db.stats }

// Len returns the number of transaction slots, including deleted ones.
func (db *DB) Len() int { return db.idx.Len() }

// Append adds one transaction to its shard's store and index. The shard is
// the next round-robin target, so store and index stay aligned position by
// position within every shard.
func (db *DB) Append(tx txdb.Transaction) error {
	pos := db.idx.Len()
	s := pos % db.idx.Shards()
	if err := db.stores[s].Append(tx); err != nil {
		return err
	}
	db.idx.Insert(tx.Items)
	return nil
}

// Get fetches the transaction at global position pos.
func (db *DB) Get(pos int) (txdb.Transaction, error) {
	if pos < 0 || pos >= db.idx.Len() {
		return txdb.Transaction{}, fmt.Errorf("shard: position %d out of range [0,%d)", pos, db.idx.Len())
	}
	s, local := db.idx.Route(pos)
	return db.stores[s].Get(local)
}

// Delete tombstones the transaction at global position pos.
func (db *DB) Delete(pos int) error {
	tx, err := db.Get(pos)
	if err != nil {
		return err
	}
	return db.idx.Delete(pos, tx.Items)
}

// Tier re-platforms the index's slice storage on pg (see Index.Tier). The
// per-shard cold files land in the database directory; an in-memory
// database needs scratchDir. Mines bind to the shards in place, so every
// later AND on a cold slice faults through pg, whatever the shard count.
func (db *DB) Tier(pg *pager.Pager, scratchDir string, hotBudget int64, touches []uint64) error {
	dir := db.dir
	if dir == "" {
		dir = scratchDir
	}
	if dir == "" {
		return fmt.Errorf("shard: tiering an in-memory database needs a scratch directory")
	}
	return db.idx.Tier(pg, dir, hotBudget, touches)
}

// Untier thaws the index back to fully resident storage.
func (db *DB) Untier() error { return db.idx.Untier() }

// SetCompression sets the adaptive storage policy on every shard and
// re-encodes the slices to match.
func (db *DB) SetCompression(on bool) { db.idx.SetCompression(on) }

// Miner binds a mining run to the shards in place: one segment per shard,
// each probing its own store. Cheap — nothing is copied — so callers build
// one per run.
func (db *DB) Miner() (*core.Miner, error) {
	return core.NewSegmentMiner(db.idx.Parts(), db.stores, db.stats)
}

// Count estimates and exactly counts an itemset over every shard (see
// core.Miner.Count): each shard ANDs its own slices and probes its own
// candidates, and the estimates and counts add.
func (db *DB) Count(items []int32) (est, exact int, err error) {
	m, err := db.Miner()
	if err != nil {
		return 0, 0, err
	}
	return m.Count(items)
}

// Merged exports every shard's rows as one index and one store in block
// order: shard 0's rows first, then shard 1's, and so on. With one shard
// these are the shard's own index and store; with more, the index is a
// fresh private copy built on every call. Nothing reads through it — mining
// and counting bind to the shards directly — so it exists for export and
// measurement only.
func (db *DB) Merged() (*sigfile.BBS, txdb.Store, error) {
	if db.Shards() == 1 {
		return db.idx.Part(0), db.stores[0], nil
	}
	idx, err := sigfile.Merge(db.idx.Parts(), db.stats)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: %w", err)
	}
	return idx, txdb.Concat(db.stores...), nil
}

// Compact rewrites a persistent single-shard database without its deleted
// transactions and rebuilds the index over the survivors. A sharded database
// cannot be compacted in place: dropping rows renumbers the survivors, and
// per-shard renumbering breaks the round-robin routing invariant — mine it
// out and re-ingest instead.
func (db *DB) Compact() error {
	if db.dir == "" {
		return fmt.Errorf("shard: in-memory database cannot be compacted")
	}
	if db.Shards() > 1 {
		return fmt.Errorf("shard: a sharded database cannot be compacted in place (rows would renumber across shards); re-ingest into a fresh directory instead")
	}
	part := db.idx.Part(0)
	if part.Deleted() == 0 {
		return nil
	}
	dataPath := filepath.Join(db.dir, dataFile)
	tmpPath := dataPath + ".compact"
	newStore, err := txdb.CreateFileStore(tmpPath, db.stats)
	if err != nil {
		return err
	}
	newIndex := sigfile.New(db.hasher, db.stats)
	scanErr := db.stores[0].Scan(func(pos int, tx txdb.Transaction) bool {
		if !part.IsLive(pos) {
			return true
		}
		if err = newStore.Append(tx); err != nil {
			return false
		}
		newIndex.Insert(tx.Items)
		return true
	})
	if scanErr != nil {
		err = scanErr
	}
	if err == nil {
		err = newStore.Sync()
	}
	if err != nil {
		_ = newStore.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("shard: compacting: %w", err)
	}
	if err := db.files[0].Close(); err != nil {
		_ = newStore.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("shard: compacting: %w", err)
	}
	_ = newStore.Close()
	if err := os.Rename(tmpPath, dataPath); err != nil {
		return fmt.Errorf("shard: compacting: %w", err)
	}
	reopened, err := txdb.OpenFileStore(dataPath, db.stats)
	if err != nil {
		return fmt.Errorf("shard: reopening after compaction: %w", err)
	}
	db.files[0] = reopened
	db.stores[0] = reopened
	idx, err := FromParts([]*sigfile.BBS{newIndex})
	if err != nil {
		return err
	}
	db.idx = idx
	return db.Save()
}

// Sync flushes every durable store.
func (db *DB) Sync() error {
	for s, f := range db.files {
		if f == nil {
			continue
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("shard: syncing shard %d data: %w", s, err)
		}
	}
	return nil
}

// Save persists every shard's index (the data files are durable as soon as
// Append returns; Sync is called first so the indexes never lead the data).
func (db *DB) Save() error {
	if db.dir == "" {
		return fmt.Errorf("shard: in-memory database has nothing to save")
	}
	if err := db.Sync(); err != nil {
		return err
	}
	for s, path := range db.indexPaths {
		if err := db.idx.Part(s).Save(path); err != nil {
			return fmt.Errorf("shard: saving shard %d index: %w", s, err)
		}
	}
	return nil
}

// Close releases every durable store. In-memory databases are a no-op.
func (db *DB) Close() error {
	var firstErr error
	for _, f := range db.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reindexTail inserts any transactions present in a shard's store but not
// yet in its index (crash recovery between data append and index save).
func (db *DB) reindexTail() error {
	for s, store := range db.stores {
		part := db.idx.Part(s)
		if part.Len() == store.Len() {
			continue
		}
		from := part.Len()
		if err := store.Scan(func(pos int, tx txdb.Transaction) bool {
			if pos >= from {
				part.Insert(tx.Items)
			}
			return true
		}); err != nil {
			return fmt.Errorf("shard: reindexing shard %d: %w", s, err)
		}
	}
	return nil
}
