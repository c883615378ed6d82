package core

import (
	"math/rand"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/quest"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// buildMiner indexes the transactions into a fresh BBS + MemStore pair.
func buildMiner(t testing.TB, txs []txdb.Transaction, m, k int) (*Miner, *iostat.Stats) {
	t.Helper()
	var stats iostat.Stats
	store := txdb.NewMemStore(&stats)
	idx := sigfile.New(sighash.NewMD5(m, k), &stats)
	for _, tx := range txs {
		if err := store.Append(tx); err != nil {
			t.Fatal(err)
		}
		idx.Insert(tx.Items)
	}
	miner, err := NewMiner(idx, store, &stats)
	if err != nil {
		t.Fatal(err)
	}
	return miner, &stats
}

func randomDB(seed int64, n, maxLen, alphabet int) []txdb.Transaction {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		l := 1 + rng.Intn(maxLen)
		items := make([]int32, l)
		for j := range items {
			items[j] = int32(rng.Intn(alphabet))
		}
		txs[i] = txdb.NewTransaction(int64(i+1), items)
	}
	return txs
}

func questDB(t testing.TB, d, n int) []txdb.Transaction {
	t.Helper()
	cfg := quest.DefaultConfig()
	cfg.D = d
	cfg.N = n
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate()
}

// itemsOnly projects patterns to their itemset keys.
func itemsOnly(ps []Pattern) map[string]bool {
	out := map[string]bool{}
	for _, p := range ps {
		out[mining.Key(p.Items)] = true
	}
	return out
}

func TestAllSchemesMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		txs := randomDB(seed, 80, 8, 25)
		want := mining.BruteForce(txs, 4)
		wantKeys := mining.ToMap(want)
		for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
			// Small m forces real false drops through the filter.
			miner, _ := buildMiner(t, txs, 64, 2)
			res, err := miner.Mine(Config{MinSupport: 4, Scheme: scheme})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, scheme, err)
			}
			got := itemsOnly(res.Patterns)
			if len(got) != len(wantKeys) {
				t.Errorf("seed %d %s: %d patterns, want %d", seed, scheme, len(got), len(wantKeys))
				continue
			}
			for k := range wantKeys {
				if !got[k] {
					t.Errorf("seed %d %s: missing pattern", seed, scheme)
				}
			}
			// Exact supports must match brute force; estimated supports
			// must dominate (Lemma 4) and clear the threshold.
			for _, p := range res.Patterns {
				actual := wantKeys[mining.Key(p.Items)]
				if p.Exact && p.Support != actual {
					t.Errorf("seed %d %s: %v exact support %d, want %d", seed, scheme, p.Items, p.Support, actual)
				}
				if !p.Exact && p.Support < actual {
					t.Errorf("seed %d %s: %v estimate %d under actual %d", seed, scheme, p.Items, p.Support, actual)
				}
				if p.Support < 4 {
					t.Errorf("seed %d %s: %v support %d under τ", seed, scheme, p.Items, p.Support)
				}
			}
		}
	}
}

func TestSchemesAgreeOnQuest(t *testing.T) {
	txs := questDB(t, 1200, 400)
	tau := mining.MinSupportCount(0.01, len(txs))
	want := map[string]bool(nil)
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		miner, _ := buildMiner(t, txs, 800, 4)
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		got := itemsOnly(res.Patterns)
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatal("degenerate workload: nothing mined")
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s mined %d patterns, SFS mined %d", scheme, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s missing a pattern SFS found", scheme)
			}
		}
	}
}

func TestSFSAndSFPExactSupportsMatchApriori(t *testing.T) {
	txs := questDB(t, 800, 300)
	tau := mining.MinSupportCount(0.01, len(txs))

	store, _ := txdb.NewMemStoreFrom(nil, txs)
	want, err := aprioriMine(store, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SFS, SFP} {
		miner, _ := buildMiner(t, txs, 600, 4)
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Patterns {
			if !p.Exact {
				t.Fatalf("%s produced non-exact pattern %v", scheme, p)
			}
		}
		if diffs := mining.Diff(scheme.String(), frequents(res), "apriori", want); len(diffs) > 0 {
			t.Errorf("%s vs apriori:\n%v", scheme, diffs)
		}
	}
}

func TestProbeSchemesHaveFewerFalseDrops(t *testing.T) {
	// Paper Section 4.1: probe-based schemes have no more than ~10% of the
	// false drops of the sequential-scan schemes, because verified exact
	// counts stop the chain effect. We assert a weaker monotone claim.
	txs := questDB(t, 1500, 500)
	tau := mining.MinSupportCount(0.005, len(txs))
	drops := map[Scheme]int{}
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		miner, _ := buildMiner(t, txs, 300, 2) // coarse index → many false drops
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		drops[scheme] = res.FalseDrops
	}
	if drops[SFP] > drops[SFS] {
		t.Errorf("SFP false drops (%d) exceed SFS (%d)", drops[SFP], drops[SFS])
	}
	if drops[DFP] > drops[DFS] {
		t.Errorf("DFP false drops (%d) exceed DFS (%d)", drops[DFP], drops[DFS])
	}
	// SFS and DFS explore the same candidate tree, so their false-drop
	// counts relate: the dual filter only removes drops (exact knowledge).
	if drops[DFS] > drops[SFS] {
		t.Errorf("DFS false drops (%d) exceed SFS (%d)", drops[DFS], drops[SFS])
	}
}

func TestDualFilterCertifiesMostPatterns(t *testing.T) {
	// Paper Section 4.1: ~80% of frequent patterns are determined without
	// probing at m=1600 on the default data. On a scaled-down workload we
	// check the mechanism delivers a substantial share.
	txs := questDB(t, 1500, 500)
	tau := mining.MinSupportCount(0.01, len(txs))
	miner, _ := buildMiner(t, txs, 1600, 4)
	res, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("nothing mined")
	}
	share := float64(res.Certain) / float64(len(res.Patterns))
	if share < 0.5 {
		t.Errorf("dual filter certified only %.0f%% of patterns (%d/%d)",
			share*100, res.Certain, len(res.Patterns))
	}
}

func TestDFPProbesLessThanSFP(t *testing.T) {
	txs := questDB(t, 1000, 400)
	tau := mining.MinSupportCount(0.01, len(txs))

	minerS, statsS := buildMiner(t, txs, 800, 4)
	if _, err := minerS.Mine(Config{MinSupport: tau, Scheme: SFP}); err != nil {
		t.Fatal(err)
	}
	minerD, statsD := buildMiner(t, txs, 800, 4)
	if _, err := minerD.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	if statsD.Probes() >= statsS.Probes() {
		t.Errorf("DFP probed %d transactions, SFP %d; dual filter should probe less",
			statsD.Probes(), statsS.Probes())
	}
}

func TestMineValidation(t *testing.T) {
	miner, _ := buildMiner(t, randomDB(1, 10, 5, 20), 64, 2)
	if _, err := miner.Mine(Config{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
	if _, err := miner.Mine(Config{MinSupport: 2, Scheme: DFP, Constraint: sigfile.VecOf(bitvec.New(10))}); err == nil {
		t.Error("constrained DFP accepted; dual-filter certificates would be unsound")
	}
	if _, err := miner.Mine(Config{MinSupport: 2, Scheme: SFS, Constraint: sigfile.VecOf(bitvec.New(3))}); err == nil {
		t.Error("mismatched constraint length accepted")
	}
}

func TestNewMinerRejectsMismatchedLengths(t *testing.T) {
	store := txdb.NewMemStore(nil)
	store.Append(txdb.NewTransaction(1, []int32{1}))
	idx := sigfile.New(sighash.NewMod(8), nil)
	if _, err := NewMiner(idx, store, nil); err == nil {
		t.Error("index/store length mismatch accepted")
	}
}

func TestMaxLen(t *testing.T) {
	txs := randomDB(4, 100, 8, 15)
	miner, _ := buildMiner(t, txs, 128, 3)
	res, err := miner.Mine(Config{MinSupport: 3, Scheme: DFP, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if len(p.Items) > 2 {
			t.Errorf("MaxLen=2 produced %v", p.Items)
		}
	}
	full, err := miner.Mine(Config{MinSupport: 3, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Patterns) <= len(res.Patterns) {
		t.Skip("workload has no patterns longer than 2; MaxLen untestable here")
	}
}

func TestConstrainedMining(t *testing.T) {
	txs := randomDB(7, 200, 8, 20)
	miner, _ := buildMiner(t, txs, 128, 3)
	// Constraint: even ordinal positions only.
	constraint, err := BuildConstraint(miner.Store(), func(pos int, _ txdb.Transaction) bool {
		return pos%2 == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := miner.Mine(Config{MinSupport: 3, Scheme: SFP, Constraint: constraint})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: brute force over the even-position transactions.
	var constrained []txdb.Transaction
	for i, tx := range txs {
		if i%2 == 0 {
			constrained = append(constrained, tx)
		}
	}
	want := mining.ToMap(mining.BruteForce(constrained, 3))
	got := itemsOnly(res.Patterns)
	if len(got) != len(want) {
		t.Errorf("constrained mining found %d patterns, want %d", len(got), len(want))
	}
	// SFP probes fetch transactions by position; under a constraint the
	// candidate vector is pre-ANDed with the constraint slice, so supports
	// must equal the ground truth over the constrained subset exactly.
	for _, p := range res.Patterns {
		if p.Support != want[mining.Key(p.Items)] {
			t.Errorf("pattern %v support %d, want %d", p.Items, p.Support, want[mining.Key(p.Items)])
		}
	}
}

func frequents(r *Result) []mining.Frequent { return r.Frequents() }
