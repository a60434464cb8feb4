package msg

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// TestPlaneMatrix runs one fixed mix of traffic — RPCs, one-way sends and a
// fan-out, with 64 B and 4 KB payloads — under all eight combinations of the
// three opt-in planes, the fault plane with an empty plan. A plane with
// nothing to do must change nothing a caller can see: the same replies and
// the same number of deliveries in every row, no open RPC left
// behind (the msg.pending-leak invariant fails Run), every pooled message
// accounted for, and every credit back where flow control is on. The all-detached row's end time is pinned: it is
// the reliable fabric's schedule, which a detached plane's code must not
// touch.
func TestPlaneMatrix(t *testing.T) {
	const detachedEnd = 46596 * time.Nanosecond
	var wantLog []string
	var wantDelivered uint64
	for row := 0; row < 8; row++ {
		flow, faults, failover := row&1 != 0, row&2 != 0, row&4 != 0
		name := fmt.Sprintf("flow=%v faults=%v failover=%v", flow, faults, failover)
		e := sim.NewEngine()
		f := testFabric(t, e)
		if flow {
			f.EnableFlow(FlowConfig{})
		}
		if faults {
			f.EnableFaults(&faultinj.Plan{Seed: 1}, FaultConfig{}, FaultHooks{})
		}
		if failover {
			f.EnableFailover()
		}
		log, oneWay := planeMix(e, f)
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		slices.Sort(log.lines) // the rows may interleave the three drivers differently
		delivered := f.metrics.Counter("msg.delivered").Value()
		if row == 0 {
			wantLog, wantDelivered = log.lines, delivered
			if len(wantLog) != 5+3 || *oneWay != 6 {
				t.Fatalf("%s: %d replies and %d one-way deliveries, want 8 and 6", name, len(wantLog), *oneWay)
			}
			// Each reply in its own entry: kernel 1 answers the calls, and
			// fan-out entry i is the i-th target's.
			for i := 0; i < 5; i++ {
				want := fmt.Sprintf("call %d: %+v", i, blob{N: 2 * (100 + i), Bytes: 64 << (6 * (i % 2)), By: 1})
				if !slices.Contains(wantLog, want) {
					t.Errorf("%s: no %q in %q", name, want, wantLog)
				}
			}
			for i, to := range fanTargets {
				if want := fmt.Sprintf("each %d: %+v", i, blob{N: 400, Bytes: 4096, By: to}); !slices.Contains(wantLog, want) {
					t.Errorf("%s: no %q in %q", name, want, wantLog)
				}
			}
			if end := e.Now().Duration(); end != detachedEnd {
				t.Errorf("%s: run ended at %v, pinned at %v: the reliable fabric's schedule moved", name, end, detachedEnd)
			}
		}
		if !slices.Equal(log.lines, wantLog) {
			t.Errorf("%s: replies\n%q\nwant the all-detached row's\n%q", name, log.lines, wantLog)
		}
		if delivered != wantDelivered || *oneWay != 6 {
			t.Errorf("%s: msg.delivered = %d with %d one-way sends handled, want %d with 6", name, delivered, *oneWay, wantDelivered)
		}
		if err := f.checkPool(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if flow {
			checkCreditsRestored(t, f)
		}
		e.Close()
	}
}

type replyLog struct{ lines []string }

func (l *replyLog) add(who string, r blob, err error) {
	if err != nil {
		l.lines = append(l.lines, fmt.Sprintf("%s: error %v", who, err))
		return
	}
	l.lines = append(l.lines, fmt.Sprintf("%s: %+v", who, r))
}

// blob is the matrix's payload: a number, its wire size and, in a reply, the
// kernel that answered.
type blob struct {
	N, Bytes int
	By       NodeID
}

func blobSize(b *blob) int { return b.Bytes }

// echo is the matrix's message: a kernel answers a blob with twice its
// number, signed by the kernel, echoing 4 KB for 4 KB.
var echo = Kind[blob, blob]{Type: TypePing, SizeOf: blobSize, ReplySizeOf: blobSize}

// fanTargets are the targets of the matrix's fan-out, from kernel 2.
var fanTargets = []NodeID{0, 1, 3}

// planeMix starts the matrix's traffic: kernel 0 calls kernel 1 five times
// (as origin traffic for kernel 1, which is a no-op without the failover
// plane), kernel 1 sends kernel 2 six one-way messages, kernel 2 fans one RPC
// out to everyone else. It returns the log the replies land in and the count
// of one-way messages handled.
func planeMix(e sim.Engine, f *Fabric) (*replyLog, *int) {
	log, oneWay := &replyLog{}, new(int)
	for n := NodeID(0); n < NodeID(f.Nodes()); n++ {
		echo.Handle(f.Endpoint(n), func(_ *sim.Proc, _ NodeID, b *blob) blob {
			if b.N < 0 {
				*oneWay++
			}
			return blob{N: 2 * b.N, Bytes: b.Bytes, By: n}
		})
	}
	size := func(i int) int {
		if i%2 == 1 {
			return 4096
		}
		return 64
	}
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r, err := echo.Call(p, f.Endpoint(0), 1, 1, &blob{N: 100 + i, Bytes: size(i)})
			log.add(fmt.Sprintf("call %d", i), r, err)
		}
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			echo.Send(p, f.Endpoint(1), 2, &blob{N: -1 - i, Bytes: size(i)})
		}
	})
	e.Spawn("fanout", func(p *sim.Proc) {
		echo.Each(p, f.Endpoint(2), fanTargets, NoRole, &blob{N: 200, Bytes: 4096}, func(i int, r *blob, err error) {
			if err != nil {
				r = &blob{}
			}
			log.add(fmt.Sprintf("each %d", i), *r, err)
		})
	})
	return log, oneWay
}
