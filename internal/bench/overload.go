package bench

import (
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// r2OverloadSweep measures what the flow-control plane buys under overload:
// a bulk generator offers 1x, 4x and 10x the link's drain rate while a
// prober issues small RPCs on the same link, with the credit/lane machinery
// off and on. Without flow control the receive queue grows with the offered
// load and the prober's p99 climbs as replies wait behind bulk; with it the
// queue is bounded by the credit limit, the excess is shed at the sender,
// and the prober's tail stays flat.
func r2OverloadSweep(s Scale) (*stats.Table, error) {
	mults := []int{1, 4, 10}
	if s == Quick {
		mults = []int{1, 10}
	}
	t := stats.NewTable("R2: overload sweep - credit flow control off vs on (bulk 16 KiB, probe RPCs sharing the link)",
		"offered load", "flow", "delivered", "shed", "probe p99 (us)", "probes ok", "probes refused", "max queue depth")
	// One cell per load and flow setting: flow off, then on.
	rs := make([]*overloadCell, 2*len(mults))
	err := cells(len(rs), func(i int) error {
		var err error
		rs[i], err = oneOverloadCell(mults[i/2], i%2 == 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		mode := "off"
		if i%2 == 1 {
			mode = "on"
		}
		t.AddRow(fmt.Sprintf("%dx", mults[i/2]), mode,
			fmt.Sprintf("%d", r.delivered),
			fmt.Sprintf("%d", r.shed),
			fmt.Sprintf("%.1f", float64(r.p99.Nanoseconds())/1000),
			fmt.Sprintf("%d", r.probeOK),
			fmt.Sprintf("%d", r.probeRefused),
			fmt.Sprintf("%d", r.maxDepth))
	}
	return t, nil
}

type overloadCell struct {
	delivered    uint64
	shed         uint64
	p99          time.Duration
	probeOK      uint64
	probeRefused uint64
	maxDepth     uint64
}

// oneOverloadCell runs one generator/prober pair at the given offered-load
// multiplier, with or without the flow plane attached.
func oneOverloadCell(mult int, flow bool) (*overloadCell, error) {
	const (
		bulkSize  = 16384
		bulkCount = 150
		probeGap  = 20 * time.Microsecond
		probeEnd  = 2 * time.Millisecond
	)
	// The remote drain cost of one 16 KiB message sets the saturation point;
	// the generator offers mult messages per drain.
	reg := stats.NewRegistry()
	// Kernel 0 on node 0, kernel 1 on node 1: the bulk crosses the slow path.
	e, fabric, err := bootFabric([]int{0, 32}, msg.DefaultConfig(), reg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if flow {
		fabric.EnableFlow(msg.FlowConfig{
			CreditsPerLink: 8,
			MaxCreditWait:  500 * time.Microsecond,
		})
	}
	var delivered uint64
	fabric.Endpoint(1).Handle(msg.TypeUser, func(p *sim.Proc, m *msg.Message) *msg.Message {
		if m.Payload == "probe" {
			return &msg.Message{Payload: "ack"}
		}
		delivered++
		return nil
	})
	// One 16 KiB message costs the sender ~15.4 us (128 ring slots) and the
	// receiver ~17.6 us to drain, so a single paced generator saturates the
	// link at 1x and the overload multiplier is expressed as mult concurrent
	// generators: each one's send-cost-plus-gap cycle matches the drain
	// interval, and together they offer mult times what the receiver can
	// absorb.
	for g := 0; g < mult; g++ {
		e.Spawn("r2-gen", func(p *sim.Proc) {
			ep := fabric.Endpoint(0)
			for i := 0; i < bulkCount; i++ {
				_ = ep.TrySend(p, &msg.Message{Type: msg.TypeUser, To: 1, Size: bulkSize})
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
	// Every probe attempt lands in the histogram — successes with their RTT,
	// refusals with the time burned before the refusal — so the flow-on p99
	// compares the same population as flow-off rather than surviving
	// successes only. The ok/refused split is reported alongside.
	probe := reg.Histogram("bench.r2.probe")
	var probeOK, probeRefused uint64
	e.Spawn("r2-probe", func(p *sim.Proc) {
		ep := fabric.Endpoint(0)
		for p.Now().Duration() < probeEnd {
			start := p.Now()
			if _, err := ep.Call(p, &msg.Message{Type: msg.TypeUser, To: 1, Size: 64, Payload: "probe"}); err != nil {
				if !msg.IsBackpressure(err) && !msg.IsDeadPeer(err) {
					panic(err)
				}
				probeRefused++
			} else {
				probeOK++
			}
			probe.Observe(p.Now().Sub(start))
			p.Sleep(probeGap)
		}
	})
	if err := e.Run(); err != nil {
		return nil, err
	}
	return &overloadCell{
		delivered:    delivered,
		shed:         reg.Counter("msg.flow.shed").Value() + reg.Counter("msg.flow.backpressure").Value(),
		p99:          probe.Quantile(0.99),
		probeOK:      probeOK,
		probeRefused: probeRefused,
		maxDepth:     reg.Counter("msg.queue.maxdepth").Value(),
	}, nil
}
