package adversity

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/msg"
)

// TestIsDegradation: the tolerated errors are recognised through the error
// chain and through the text a workload's panic renders them into, and
// nothing else is.
func TestIsDegradation(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{msg.ErrDeadPeer, true},
		{fmt.Errorf("consumer load: %w", msg.ErrDeadPeer), true},
		{errors.New("sim: process \"thread-3\" panicked: producer store: " + msg.ErrDeadPeer.Error()), true},
		{errors.New("futex home k1 died while task waited"), true},
		{errors.New("page-fetch to k2 refused under backpressure"), true},
		{errors.New("consumer sum = 3, want 240"), false},
		{errors.New("sim: deadlock: blocked processes with no pending events"), false},
	} {
		if got := IsDegradation(tc.err); got != tc.want {
			t.Errorf("IsDegradation(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
