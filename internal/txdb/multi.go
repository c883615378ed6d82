package txdb

import (
	"fmt"
	"sort"
)

// concatStore presents per-shard stores as one logical Store in block
// order: part 0's rows at positions [0, n0), part 1's at [n0, n0+n1), and
// so on — the same row order sigfile.Merge gives the merged index, so
// position i of the concatenated store is bit i of every merged slice
// (shard.DB.Merged exports the pair).
type concatStore struct {
	parts   []Store
	offsets []int // offsets[i] is the first global position of part i
	n       int
}

// Concat builds a read-only Store over the parts in block order. Part
// lengths are captured at construction: the concatenation is meant for a
// snapshot's lifetime, not for stores that keep growing underneath it.
// A single part is returned as-is.
func Concat(parts ...Store) Store {
	if len(parts) == 1 {
		return parts[0]
	}
	c := &concatStore{parts: parts, offsets: make([]int, len(parts))}
	for i, p := range parts {
		c.offsets[i] = c.n
		c.n += p.Len()
	}
	return c
}

// Len implements Store.
func (c *concatStore) Len() int { return c.n }

// Scan implements Store: one sequential pass per part, in part order, with
// global positions. Each part charges its own sequential pass, so the
// accounting reflects the N per-shard scans that actually happen.
func (c *concatStore) Scan(fn func(pos int, tx Transaction) bool) error {
	stop := false
	for i, p := range c.parts {
		if stop {
			break
		}
		off := c.offsets[i]
		captured := c.n - off
		if i+1 < len(c.offsets) {
			captured = c.offsets[i+1] - off
		}
		if err := p.Scan(func(pos int, tx Transaction) bool {
			if pos >= captured { // ignore rows appended after construction
				return false
			}
			if !fn(off+pos, tx) {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return fmt.Errorf("txdb: concat scan part %d: %w", i, err)
		}
	}
	return nil
}

// Get implements Store, routing the global position to its part.
func (c *concatStore) Get(pos int) (Transaction, error) {
	if pos < 0 || pos >= c.n {
		return Transaction{}, fmt.Errorf("txdb: position %d out of range [0,%d)", pos, c.n)
	}
	i := sort.Search(len(c.offsets), func(j int) bool { return c.offsets[j] > pos }) - 1
	return c.parts[i].Get(pos - c.offsets[i])
}

// Append implements Store; a concatenation is read-only — writes go to the
// owning shard.
func (c *concatStore) Append(Transaction) error {
	return fmt.Errorf("txdb: append to a read-only concatenated store")
}

// SetCacheLimit implements CacheLimiter by splitting the budget evenly
// across the parts that accept one.
func (c *concatStore) SetCacheLimit(bytes int64) {
	per := bytes / int64(len(c.parts))
	for _, p := range c.parts {
		if l, ok := p.(interface{ SetCacheLimit(int64) }); ok {
			l.SetCacheLimit(per)
		}
	}
}
