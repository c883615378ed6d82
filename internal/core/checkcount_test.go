package core

import (
	"testing"

	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// newCheckCountRun builds a run with hand-set alphabet arrays so the
// CheckCount branches (paper Fig. 3) can be exercised directly.
func newCheckCountRun(t *testing.T, tau int, est1, act1 int) *run {
	t.Helper()
	idx := sigfile.New(sighash.NewMod(8), nil)
	store := txdb.NewMemStore(nil)
	m, err := NewMiner(idx, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(m, m.idx, Config{MinSupport: tau})
	r.items = []txdb.Item{1}
	r.est1 = []int{est1}
	r.act1 = []int{act1}
	return r
}

func TestCheckCountLevelOne(t *testing.T) {
	// I2 = NULL: the exact 1-itemset count decides alone (Fig. 3 lines 1–3).
	r := newCheckCountRun(t, 10, 15, 12)
	flag, count := r.checkCount(0, 0, 0, flagCertainActual, 15, 0)
	if flag != flagCertainActual || count != 12 {
		t.Errorf("frequent 1-itemset: flag=%d count=%d, want 1/12", flag, count)
	}
	r = newCheckCountRun(t, 10, 15, 7) // est passed but exact count below τ
	flag, count = r.checkCount(0, 0, 0, flagCertainActual, 15, 0)
	if flag != flagNonFrequent || count != 7 {
		t.Errorf("false-drop 1-itemset: flag=%d count=%d, want -1/7", flag, count)
	}
}

func TestCheckCountCorollaryOne(t *testing.T) {
	// Both I1 and I2 exact (est == act on both) ⇒ union's estimate is the
	// actual count: flag 1 (Fig. 3 lines 6–7).
	r := newCheckCountRun(t, 10, 20, 20)
	flag, count := r.checkCount(0, 40, 40, flagCertainActual, 18, 1)
	if flag != flagCertainActual || count != 18 {
		t.Errorf("Corollary 1: flag=%d count=%d, want 1/18", flag, count)
	}
}

func TestCheckCountLowerBoundI1Exact(t *testing.T) {
	// I1 exact, I2 not (parentEst 45 > parentCount 40): the Lemma 5 lower
	// bound childEst - (parentEst - parentCount) = 18 - 5 = 13 >= τ=10
	// certifies frequency with an estimated count: flag 2 (lines 8–9).
	r := newCheckCountRun(t, 10, 20, 20)
	flag, count := r.checkCount(0, 45, 40, flagCertainActual, 18, 1)
	if flag != flagCertainEst || count != 18 {
		t.Errorf("lower bound (I1 exact): flag=%d count=%d, want 2/18", flag, count)
	}
	// Bound below τ: uncertain.
	flag, _ = r.checkCount(0, 45, 30, flagCertainActual, 18, 1)
	if flag != flagUncertain {
		t.Errorf("weak bound: flag=%d, want 0", flag)
	}
}

func TestCheckCountLowerBoundI2Exact(t *testing.T) {
	// I2 exact (parentEst == parentCount), I1 not (est1 25 > act1 20):
	// childEst - (est1 - act1) = 18 - 5 = 13 >= τ ⇒ flag 2 (lines 10–11).
	r := newCheckCountRun(t, 10, 25, 20)
	flag, count := r.checkCount(0, 40, 40, flagCertainActual, 18, 1)
	if flag != flagCertainEst || count != 18 {
		t.Errorf("lower bound (I2 exact): flag=%d count=%d, want 2/18", flag, count)
	}
	// Bound below τ: uncertain.
	r = newCheckCountRun(t, 10, 40, 20)
	flag, _ = r.checkCount(0, 40, 40, flagCertainActual, 25, 1)
	if flag != flagUncertain {
		t.Errorf("weak bound: flag=%d, want 0", flag)
	}
}

func TestCheckCountUncertainParent(t *testing.T) {
	// A parent with flag != 1 can never certify a child (Fig. 3 line 5
	// gates on flag == 1).
	r := newCheckCountRun(t, 10, 20, 20)
	for _, parentFlag := range []int{flagUncertain, flagCertainEst} {
		flag, count := r.checkCount(0, 40, 40, parentFlag, 18, 1)
		if flag != flagUncertain || count != 18 {
			t.Errorf("parentFlag=%d: flag=%d count=%d, want 0/18", parentFlag, flag, count)
		}
	}
}

// The certified counts must actually be correct: mine with DFS (no probe
// corrections) and verify every flag-1 pattern's support against brute
// force, and every flag-2 pattern's frequency.
func TestCertificatesAreSound(t *testing.T) {
	txs := questDB(t, 600, 200)
	miner, _ := buildMiner(t, txs, 200, 2) // coarse: plenty of estimation error
	res, err := miner.Mine(Config{MinSupport: 6, Scheme: DFS})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth support per itemset.
	actual := func(items []txdb.Item) int {
		n := 0
		for _, tx := range txs {
			if tx.Contains(items) {
				n++
			}
		}
		return n
	}
	checkedExact, checkedCertified := 0, 0
	for _, p := range res.Patterns {
		act := actual(p.Items)
		if act < 6 {
			t.Fatalf("pattern %v in the answer set but support %d < τ", p.Items, act)
		}
		if p.Exact {
			if p.Support != act {
				t.Errorf("exact pattern %v support %d, actual %d", p.Items, p.Support, act)
			}
			checkedExact++
		} else {
			if p.Support < act {
				t.Errorf("estimated pattern %v support %d below actual %d", p.Items, p.Support, act)
			}
			checkedCertified++
		}
	}
	if checkedExact == 0 {
		t.Error("no exact-count patterns produced; CheckCount never fired")
	}
}
