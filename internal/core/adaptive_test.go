package core

import (
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/mining"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

func TestAdaptiveMatchesResident(t *testing.T) {
	txs := questDB(t, 1000, 300)
	tau := mining.MinSupportCount(0.01, len(txs))
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		resident, _ := buildMiner(t, txs, 512, 4)
		want, err := resident.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}

		constrained, _ := buildMiner(t, txs, 512, 4)
		// Budget fits only a fraction of the 512 slices → adaptive path.
		budget := constrained.Index().TotalBytes() / 4
		got, err := constrained.Mine(Config{MinSupport: tau, Scheme: scheme, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}

		wantKeys, gotKeys := itemsOnly(want.Patterns), itemsOnly(got.Patterns)
		if len(wantKeys) != len(gotKeys) {
			t.Errorf("%s: adaptive found %d patterns, resident %d", scheme, len(gotKeys), len(wantKeys))
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("%s: adaptive missing a resident pattern", scheme)
			}
		}
		// The folded filter sees coarser estimates, so it can only produce
		// more candidates, never fewer.
		if got.Candidates < want.Candidates {
			t.Errorf("%s: adaptive produced %d candidates, resident %d — fold should coarsen",
				scheme, got.Candidates, want.Candidates)
		}
	}
}

func TestAdaptiveTinyBudget(t *testing.T) {
	// Even a budget fitting a single slice must terminate and be correct.
	txs := questDB(t, 400, 150)
	tau := mining.MinSupportCount(0.02, len(txs))

	resident, _ := buildMiner(t, txs, 256, 4)
	want, err := resident.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}

	constrained, _ := buildMiner(t, txs, 256, 4)
	got, err := constrained.Mine(Config{MinSupport: tau, Scheme: DFP, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, gotKeys := itemsOnly(want.Patterns), itemsOnly(got.Patterns)
	if len(wantKeys) != len(gotKeys) {
		t.Errorf("single-slice adaptive found %d patterns, want %d", len(gotKeys), len(wantKeys))
	}
}

func TestAdaptiveExactSupports(t *testing.T) {
	// Under SFP the adaptive path still verifies everything by probing, so
	// all supports are exact and match brute force.
	txs := randomDB(13, 150, 8, 20)
	miner, _ := buildMiner(t, txs, 128, 3)
	budget := miner.Index().TotalBytes() / 3
	res, err := miner.Mine(Config{MinSupport: 4, Scheme: SFP, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	want := mining.ToMap(mining.BruteForce(txs, 4))
	if len(res.Patterns) != len(want) {
		t.Fatalf("found %d patterns, want %d", len(res.Patterns), len(want))
	}
	for _, p := range res.Patterns {
		if !p.Exact {
			t.Errorf("adaptive SFP produced non-exact pattern %v", p)
		}
		if p.Support != want[mining.Key(p.Items)] {
			t.Errorf("pattern %v support %d, want %d", p.Items, p.Support, want[mining.Key(p.Items)])
		}
	}
}

func TestAdaptiveChargesPreprocessing(t *testing.T) {
	txs := questDB(t, 500, 200)
	tau := mining.MinSupportCount(0.01, len(txs))

	resident, statsR := buildMiner(t, txs, 512, 4)
	if _, err := resident.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	constrained, statsC := buildMiner(t, txs, 512, 4)
	if _, err := constrained.Mine(Config{MinSupport: tau, Scheme: DFP,
		MemoryBudget: constrained.Index().TotalBytes() / 8}); err != nil {
		t.Fatal(err)
	}
	// The fold pass reads every slice of the full index; adaptive runs must
	// never report less slice I/O than zero and should show the extra work.
	if statsC.SlicePageReads() == 0 || statsR.SlicePageReads() == 0 {
		t.Error("slice reads not accounted")
	}
}

func TestCountQueries(t *testing.T) {
	txs := []txdb.Transaction{
		txdb.NewTransaction(1, []int32{1, 2, 3}),
		txdb.NewTransaction(2, []int32{2, 3}),
		txdb.NewTransaction(3, []int32{1, 3}),
		txdb.NewTransaction(4, []int32{1, 2, 3}),
		txdb.NewTransaction(5, []int32{4, 5}),
	}
	miner, _ := buildMiner(t, txs, 64, 3)

	est, exact, err := miner.Count([]txdb.Item{3, 1}) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if exact != 3 {
		t.Errorf("exact count of {1,3} = %d, want 3", exact)
	}
	if est < exact {
		t.Errorf("estimate %d below exact %d", est, exact)
	}

	// Non-occurring itemset.
	_, exact, err = miner.Count([]txdb.Item{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if exact != 0 {
		t.Errorf("exact count of {1,5} = %d, want 0", exact)
	}

	// Constrained count: odd TIDs only (positions 0, 2, 4).
	constraint, err := BuildConstraint(miner.Store(), func(_ int, tx txdb.Transaction) bool {
		return tx.TID%2 == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	_, exact, err = miner.CountConstrained([]txdb.Item{1, 3}, constraint)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 2 { // TIDs 1 and 3
		t.Errorf("constrained exact = %d, want 2", exact)
	}

	// Length-mismatched constraint errors.
	if _, _, err := miner.CountConstrained([]txdb.Item{1}, sigfile.VecOf(bitvec.New(3))); err == nil {
		t.Error("mismatched constraint accepted")
	}
}

func TestMineApproxSuperset(t *testing.T) {
	txs := questDB(t, 600, 200)
	tau := mining.MinSupportCount(0.01, len(txs))
	miner, _ := buildMiner(t, txs, 256, 4)

	exact, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := miner.MineApprox(tau, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) < len(exact.Patterns) {
		t.Fatalf("approx mined %d patterns, exact %d — must be a superset", len(approx), len(exact.Patterns))
	}
	approxKeys := itemsOnly(approx)
	for _, p := range exact.Patterns {
		if !approxKeys[mining.Key(p.Items)] {
			t.Errorf("approx missing frequent pattern %v", p.Items)
		}
	}
	for _, p := range approx {
		if p.Exact {
			t.Errorf("approx pattern %v claims exactness", p.Items)
		}
		if p.Support < tau {
			t.Errorf("approx pattern %v support %d under τ", p.Items, p.Support)
		}
	}
	if _, err := miner.MineApprox(0, 0, 1); err == nil {
		t.Error("MineApprox accepted MinSupport 0")
	}
}
