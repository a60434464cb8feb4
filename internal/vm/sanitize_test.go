package vm

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

// attachSanitizer wires a checker into every kernel of the test env the way
// core.AttachSanitizer does for a booted OS.
func attachSanitizer(ev *env, cfg sanitize.Config) *sanitize.Checker {
	c := sanitize.New(ev.e, cfg)
	ev.e.SetProcObserver(c)
	ev.fabric.SetObserver(c)
	for _, svc := range ev.svcs {
		svc.AttachChecker(c)
	}
	return c
}

// timestampRE matches the virtual-time fields in a rendered violation
// (including the %12v left-padding) so the golden comparison survives
// cost-model changes.
var timestampRE = regexp.MustCompile(`[ \t]*\d+(\.\d+)?(ns|µs|us|ms|s)`)

func normalizeReport(s string) string {
	return timestampRE.ReplaceAllString(s, "T")
}

// TestSanitizerCatchesSkippedRevoke is the golden-output test for the
// coherence sanitizer: a deliberately broken directory (InjectSkipRevoke
// drops invalidations bound for kernel 1) must produce exactly one
// single-writer violation, with the page's grant/revoke history attached.
func TestSanitizerCatchesSkippedRevoke(t *testing.T) {
	ev := newEnv(t, 2, 64)
	ck := attachSanitizer(ev, sanitize.Config{})
	ev.svcs[0].InjectSkipRevoke(1)
	sps := ev.group(t, 1)

	var addr mem.Addr
	ev.run(t, func(p *sim.Proc) {
		var err error
		addr, err = sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Errorf("Map: %v", err)
			return
		}
		// Seed the page with a value at the origin...
		if err := sps[0].Store(p, 0, addr, 7); err != nil {
			t.Errorf("seed Store: %v", err)
			return
		}
		// ...replicate it to kernel 1 (shared copy)...
		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 7 {
			t.Errorf("replica Load = %d, %v; want 7, nil", v, err)
			return
		}
		// ...then upgrade at the origin. The directory must invalidate
		// kernel 1's copy first, but the injected fault skips it: the
		// exclusive grant goes out while k1 still holds the page.
		if err := sps[0].Store(p, 0, addr, 9); err != nil {
			t.Errorf("upgrade Store: %v", err)
		}
	})

	vs := ck.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1:\n%s", len(vs), ck.Report())
	}
	v := vs[0]
	vpn := mem.PageOf(addr)
	if v.Kind != "single-writer" || v.Node != 0 || v.GID != 1 || v.VPN != vpn {
		t.Errorf("violation = kind=%q node=%d gid=%d vpn=%#x, want single-writer on k0 g1/p%#x",
			v.Kind, v.Node, v.GID, uint64(v.VPN), uint64(vpn))
	}

	page := fmt.Sprintf("g1/p%#x", uint64(vpn))
	got := normalizeReport(v.String())
	want := strings.ReplaceAll(strings.TrimLeft(`
single-writer violation atT on k0: exclusive grant of PAGE to k0 while k1 still holds a copy (rights=1)
  page history (PAGE):
T  k0  san.grant    PAGE excl to k0 fresh=true val=0
T  k0  san.revoke   PAGE at k0 downgrade=true hadCopy=true val=7
T  k1  san.grant    PAGE shared to k1 fresh=true val=7
`, "\n"), "PAGE", page)
	if got != strings.TrimRight(want, "\n") {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The injected fault is itself accounted for: exactly one invalidation
	// was dropped on the floor to provoke the violation.
	if n := ev.svcs[0].metrics.Counter("vm.inject.skipped").Value(); n != 1 {
		t.Errorf("vm.inject.skipped = %d, want 1", n)
	}
}

// TestSanitizerCleanWithoutInjection is the control: the identical schedule
// with an intact directory reports nothing.
func TestSanitizerCleanWithoutInjection(t *testing.T) {
	ev := newEnv(t, 2, 64)
	ck := attachSanitizer(ev, sanitize.Config{FailFast: true})
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Errorf("Map: %v", err)
			return
		}
		if err := sps[0].Store(p, 0, addr, 7); err != nil {
			t.Errorf("seed Store: %v", err)
			return
		}
		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 7 {
			t.Errorf("replica Load = %d, %v; want 7, nil", v, err)
			return
		}
		if err := sps[0].Store(p, 0, addr, 9); err != nil {
			t.Errorf("upgrade Store: %v", err)
			return
		}
		// The revoke went through, so kernel 1 re-faults and sees the new
		// value.
		if v, err := sps[1].Load(p, 2, addr); err != nil || v != 9 {
			t.Errorf("replica re-Load = %d, %v; want 9, nil", v, err)
		}
	})
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations:\n%s", ck.Report())
	}
}
