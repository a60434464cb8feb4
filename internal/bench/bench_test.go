package bench

import "testing"

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("F4"); !ok {
		t.Fatal("F4 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if len(Experiments()) < 15 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
}

// TestHeadlineShapes verifies the qualitative claims the reproduction
// targets: the replicated kernel scales past SMP on contention-heavy
// sweeps, while staying competitive uncontended.
func TestHeadlineShapes(t *testing.T) {
	series, err := f4MmapStorm(Quick)
	if err != nil {
		t.Fatalf("F4: %v", err)
	}
	pop, _ := series.Line("popcorn")
	smp, _ := series.Line("smp")
	if pop == nil || smp == nil {
		t.Fatalf("F4 missing lines:\n%s", series)
	}
	last := len(pop) - 1
	if pop[last] <= smp[last] {
		t.Errorf("F4 at max threads: popcorn %.1f <= smp %.1f cycles/ms\n%s", pop[last], smp[last], series)
	}
	if pop[0] > 2.5*smp[0] || smp[0] > 2.5*pop[0] {
		t.Errorf("F4 single-thread results diverge more than 2.5x: %.1f vs %.1f", pop[0], smp[0])
	}
}

// TestNewFindingsShapes pins the D5 and F9 results: ownership migration
// must beat write forwarding on repeated remote writes, and the KV store's
// popcorn line must rise steeply with request locality while SMP stays
// roughly flat.
func TestNewFindingsShapes(t *testing.T) {
	d5, err := ablationPageOwnership(Quick)
	if err != nil {
		t.Fatalf("D5: %v", err)
	}
	if d5.Rows() != 2 {
		t.Fatalf("D5 rows = %d", d5.Rows())
	}
	f9, err := f9KVStore(Quick)
	if err != nil {
		t.Fatalf("F9: %v", err)
	}
	pop, ok := f9.Line("popcorn")
	if !ok {
		t.Fatalf("F9 missing popcorn line:\n%s", f9)
	}
	smp, _ := f9.Line("smp")
	last := len(pop) - 1
	if pop[last] < 3*pop[0] {
		t.Errorf("F9 popcorn locality gradient too flat: %.0f -> %.0f req/ms\n%s", pop[0], pop[last], f9)
	}
	if smp[last] > 2*smp[0] || smp[0] > 2*smp[last] {
		t.Errorf("F9 smp line not flat: %.0f -> %.0f req/ms", smp[0], smp[last])
	}
}
