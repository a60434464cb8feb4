package adversity

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
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
