package core

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

// TestViolationHistorySurvivesTraffic grants a page exclusively to kernel 1,
// buries the grant under 150 unrelated remote faults from kernel 1 (about
// 300 messages), then lets kernel 0 take the page with the revoke of kernel
// 1's copy skipped. The single-writer report must still name the grant that
// explains it: the page's history is its own, so no amount of traffic on
// other pages evicts it.
func TestViolationHistorySurvivesTraffic(t *testing.T) {
	const unrelated = 150
	os := boot(t, 2)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{})
	os.Kernel(0).VM.InjectSkipRevoke(1)
	var target mem.Addr
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		if err := pr.Spawn(p, 1, func(th osi.Thread) {
			a, err := th.Mmap((unrelated+1)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			target = a
			if err := th.Store(target, 1); err != nil {
				panic(err)
			}
			for i := 1; i <= unrelated; i++ {
				if _, err := th.Load(a + mem.Addr(i*hw.PageSize)); err != nil {
					panic(err)
				}
			}
		}); err != nil {
			t.Errorf("Spawn on k1: %v", err)
			return
		}
		pr.Wait(p)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			if err := th.Store(target, 2); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Errorf("Spawn on k0: %v", err)
			return
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sent := os.Metrics().Counter("msg.sent").Value(); sent < 2*unrelated {
		t.Fatalf("msg.sent = %d, want at least %d: the faults did not cross kernels", sent, 2*unrelated)
	}
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatal("skipped revoke not caught")
	}
	report := vs[0].String()
	if vs[0].Kind != "single-writer" || vs[0].VPN != mem.PageOf(target) || !strings.Contains(report, "san.grant") || !strings.Contains(report, "excl to k1") {
		t.Fatalf("first violation does not name the grant to k1:\n%s", report)
	}
}
