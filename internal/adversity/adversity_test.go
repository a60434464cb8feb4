package adversity

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// TestIsDegradation: the tolerated errors are recognised through the error
// chain — also when a sim process panicked with one — and nothing else is.
func TestIsDegradation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	e.Spawn("thread-3", func(*sim.Proc) {
		panic(fmt.Errorf("producer store: %w", msg.ErrDeadPeer))
	})
	panicked := e.Run()
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{msg.ErrDeadPeer, true},
		{fmt.Errorf("consumer load: %w", msg.ErrDeadPeer), true},
		{panicked, true},
		{fmt.Errorf("kvstore put: %w", msg.ErrBackpressure), true},
		{errors.New("consumer sum = 3, want 240"), false},
		{errors.New("sim: deadlock: blocked processes with no pending events"), false},
	} {
		if got := IsDegradation(tc.err); got != tc.want {
			t.Errorf("IsDegradation(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestSweepDigestsHoldAcrossTieSeeds: each bare sweep row — no fault plan,
// same-instant events shuffled from the seed — ends in one digest over
// seeds 1–16: the schedules differ, what the program leaves does not. A
// row's digest covers a non-zero word exactly when it differs from the
// digest of its processes' final layouts alone.
func TestSweepDigestsHoldAcrossTieSeeds(t *testing.T) {
	rows := map[string]struct {
		// procs processes each leave pages mapped read-write at the map
		// base; words says whether a non-zero word is left too.
		procs int
		pages uint64
		words bool
	}{
		// Every mapping is unmapped again.
		"contention": {1, 0, false},
		// Each producer's pages hold their indices.
		"migration": {2, 16, true},
		// The one word, the lock, ends unlocked: 0.
		"futex": {1, 1, false},
	}
	for _, row := range Sweeps {
		digests := make(map[uint64][]int64)
		for seed := int64(1); seed <= 16; seed++ {
			cfg, err := row.Config(seed)
			if err != nil {
				t.Fatal(err)
			}
			o, err := core.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = row.Run(o, seed)
			digests[o.Digest()] = append(digests[o.Digest()], seed)
			o.Close()
			if err != nil {
				t.Fatalf("%s seed %d: %v", row.Name, seed, err)
			}
		}
		if len(digests) != 1 {
			t.Errorf("%s: %d digests over seeds 1-16, want one: %v", row.Name, len(digests), digests)
		}
		want := rows[row.Name]
		l := vm.NewLayout()
		if want.pages > 0 {
			if _, _, _, err := l.Resolve(vm.OpMap, 0, want.pages*hw.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
				t.Fatal(err)
			}
		}
		layouts := uint64(want.procs) * uint64(l.Digest())
		for d := range digests {
			words := d != layouts
			t.Logf("%s: one digest over 16 tie seeds; covers a non-zero word: %v", row.Name, words)
			if words != want.words {
				t.Errorf("%s: covers a non-zero word = %v, want %v", row.Name, words, want.words)
			}
		}
	}
}
