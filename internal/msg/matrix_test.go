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
// behind (the msg.pending-leak invariant fails Run), and every credit back
// where flow control is on. The all-detached row's end time is pinned: it is
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
		if flow {
			checkCreditsRestored(t, f)
		}
		e.Close()
	}
}

type replyLog struct{ lines []string }

func (l *replyLog) add(who string, r *Message, err error) {
	if err != nil {
		l.lines = append(l.lines, fmt.Sprintf("%s: error %v", who, err))
		return
	}
	l.lines = append(l.lines, fmt.Sprintf("%s: %v size=%d from k%d", who, r.Payload, r.Size, r.From))
}

// planeMix starts the matrix's traffic: kernel 0 calls kernel 1 five times
// (stamped as origin traffic, which is a no-op without the failover plane),
// kernel 1 sends kernel 2 six one-way messages, kernel 2 fans one RPC out to
// everyone else. Every kernel answers a ping with twice its payload, echoing
// 4 KB for 4 KB. It returns the log the replies land in and the count of
// one-way messages handled.
func planeMix(e sim.Engine, f *Fabric) (*replyLog, *int) {
	log, oneWay := &replyLog{}, new(int)
	for n := 0; n < f.Nodes(); n++ {
		f.Endpoint(NodeID(n)).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			v := m.Payload.(int)
			if v < 0 {
				*oneWay++
				return nil
			}
			return &Message{Size: m.Size, Payload: 2 * v}
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
			m := &Message{Type: TypePing, To: 1, Size: size(i), Payload: 100 + i}
			f.StampOrigin(m, 1)
			r, err := f.Endpoint(0).Call(p, m)
			log.add(fmt.Sprintf("call %d", i), r, err)
		}
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			f.Endpoint(1).Send(p, &Message{Type: TypePing, To: 2, Size: size(i), Payload: -1 - i})
		}
	})
	e.Spawn("fanout", func(p *sim.Proc) {
		targets := []NodeID{0, 1, 3}
		replies, errs := make([]*Message, len(targets)), make([]error, len(targets))
		f.Endpoint(2).CallEachErr(p, targets, func(to NodeID) *Message {
			return &Message{Type: TypePing, To: to, Size: 4096, Payload: 200 + int(to)}
		}, replies, errs)
		for i := range targets {
			log.add(fmt.Sprintf("each %d", i), replies[i], errs[i])
		}
	})
	return log, oneWay
}
