package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"bbsmine"
	"bbsmine/internal/fptree"
	"bbsmine/internal/mining"
	"bbsmine/internal/quest"
	"bbsmine/internal/txdb"
	"bbsmine/internal/weblog"
)

// The paper's default setting (fig. 6): T10.I10.D10K over V=10K items,
// signatures of m=1600 bits with k=4 hashes, τ = 0.3%.
const (
	sigM    = 1600
	sigK    = 4
	tauFrac = 0.003
)

// rotation is the fixed scheme order of the mine workloads.
var rotation = []bbsmine.Scheme{bbsmine.SFS, bbsmine.DFS, bbsmine.SFP, bbsmine.DFP}

// inputs is everything generated before anything is timed.
type inputs struct {
	txs    []txdb.Transaction
	oracle map[string]int // FP-growth frequent itemsets at τ → support
	freq   []mining.Frequent
	pool   []countCase // ad-hoc count itemsets with brute-force counts
	rng    *rand.Rand  // drives every later seeded choice
}

// countCase is one ad-hoc Count query and its brute-force answer.
type countCase struct {
	items []int32
	exact int
}

// fig6Seed fixes the Quest data to the paper-reproduction data set every
// figure of the repository uses (EXPERIMENTS.md: 8,714 frequent itemsets at
// τ = 0.3%). Other Quest seeds give anywhere from ≈ 1,200 to ≈ 38,000
// frequent itemsets at the same setting, which would make every number
// depend on which seeds a comparison happened to draw. The run's seed
// drives everything issued against the data instead: the count itemsets,
// the order of every request and the inserted weblog sessions.
const fig6Seed = 1

// makeInputs generates the Quest base data and its oracle answers.
func makeInputs(seed int64) (*inputs, error) {
	cfg := quest.DefaultConfig()
	cfg.Seed = fig6Seed
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("quest generator: %w", err)
	}
	in := &inputs{txs: g.Generate(), rng: rand.New(rand.NewSource(seed*7919 + 17))}
	in.freq, in.oracle, err = oracleMine(in.txs, mining.MinSupportCount(tauFrac, len(in.txs)))
	if err != nil {
		return nil, err
	}
	in.pool = countPool(in.rng, in.txs, in.freq)
	return in, nil
}

// oracleMine computes the frequent itemsets with FP-growth, an algorithm
// independent of the BBS index under test.
func oracleMine(txs []txdb.Transaction, tau int) ([]mining.Frequent, map[string]int, error) {
	store, err := txdb.NewMemStoreFrom(nil, txs)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle store: %w", err)
	}
	fs, err := fptree.Mine(store, fptree.Config{MinSupport: tau})
	if err != nil {
		return nil, nil, fmt.Errorf("oracle mine: %w", err)
	}
	return fs, mining.ToMap(fs), nil
}

// countPool draws 2- and 3-itemsets from the data: half from the frequent
// set, half from random transactions (almost all infrequent), and counts
// each by a brute-force scan.
func countPool(rng *rand.Rand, txs []txdb.Transaction, freq []mining.Frequent) []countCase {
	const perKind = 128
	var pool []countCase
	var small []mining.Frequent
	for _, f := range freq {
		if n := len(f.Items); n == 2 || n == 3 {
			small = append(small, f)
		}
	}
	for _, i := range rng.Perm(len(small)) {
		if len(pool) == perKind {
			break
		}
		pool = append(pool, countCase{items: append([]int32(nil), small[i].Items...)})
	}
	for len(pool) < 2*perKind {
		tx := txs[rng.Intn(len(txs))]
		if len(tx.Items) < 2 {
			continue
		}
		k := 2
		if len(tx.Items) >= 3 && rng.Intn(2) == 0 {
			k = 3
		}
		pick := rng.Perm(len(tx.Items))[:k]
		items := make([]int32, k)
		for j, p := range pick {
			items[j] = tx.Items[p]
		}
		pool = append(pool, countCase{items: txdb.NewTransaction(0, items).Items})
	}
	for i := range pool {
		for _, tx := range txs {
			if tx.Contains(pool[i].items) {
				pool[i].exact++
			}
		}
	}
	return pool
}

// deck deals a fixed multiset of cards in a seeded order, reshuffling
// after every pass, so each window draws the same proportions whatever the
// seed; only the order varies.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, cards []int) *deck { return &deck{rng: rng, cards: cards} }

func (d *deck) deal() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// weblogBatches cuts n insert batches of 4–15 weblog-style sessions.
func weblogBatches(seed int64, rng *rand.Rand, n int) ([][][]int32, error) {
	cfg := weblog.DefaultConfig()
	cfg.Seed = seed
	cfg.BaseTransactions = n * 15
	cfg.Days = 0
	w, err := weblog.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("weblog generator: %w", err)
	}
	batches := make([][][]int32, n)
	sizes := newDeck(rng, []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	next := 0
	for i := range batches {
		size := sizes.deal()
		for j := 0; j < size; j++ {
			batches[i] = append(batches[i], w.Base[next].Items)
			next++
		}
	}
	return batches, nil
}

// pattern is one mined itemset in whichever form an API returned it.
type pattern struct {
	items   []int32
	support int
	exact   bool
}

func fromLibrary(ps []bbsmine.Pattern) []pattern {
	out := make([]pattern, len(ps))
	for i, p := range ps {
		out[i] = pattern{items: p.Items, support: p.Support, exact: p.Exact}
	}
	return out
}

// checkAgainstOracle reports the first way ps differs from the oracle's
// frequent set: a missing or extra itemset, an exact support that differs,
// or an estimate below the true support. "" means the answer is right.
func checkAgainstOracle(ps []pattern, oracle map[string]int) string {
	if len(ps) != len(oracle) {
		return fmt.Sprintf("%d patterns, oracle has %d", len(ps), len(oracle))
	}
	for _, p := range ps {
		want, ok := oracle[mining.Key(p.items)]
		switch {
		case !ok:
			return fmt.Sprintf("itemset %v is not frequent", p.items)
		case p.exact && p.support != want:
			return fmt.Sprintf("itemset %v: exact support %d, true %d", p.items, p.support, want)
		case !p.exact && p.support < want:
			return fmt.Sprintf("itemset %v: estimate %d below true support %d", p.items, p.support, want)
		}
	}
	return ""
}

// digest fingerprints a result so repeated identical answers need not be
// re-checked item by item.
func digest(ps []pattern) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range ps {
		for _, it := range p.items {
			binary.LittleEndian.PutUint32(b[:], uint32(it))
			_, _ = h.Write(b[:]) // hash.Hash writes never fail
		}
		binary.LittleEndian.PutUint32(b[:], uint32(p.support))
		_, _ = h.Write(b[:])
		if p.exact {
			_, _ = h.Write([]byte{1, 0xff})
		} else {
			_, _ = h.Write([]byte{0, 0xff})
		}
	}
	return h.Sum64()
}
