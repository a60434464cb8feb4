package vetcheck

import "testing"

// vmPayloads declares the two version-carrying coherence payloads the way
// package vm does.
const vmPayloads = `package vm

type pageGrant struct {
	Value, Src, Prot int
	Version          uint64
	Err              error
}

var errSegv error

type pageInval struct {
	GID, VPN  int
	Downgrade bool
	Version   uint64
}
`

func TestDirVerPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/payload.go": vmPayloads,
		"internal/vm/bad.go": `package vm

func bad() {
	g := &pageGrant{Value: 7, Src: 2, Prot: 3}
	i := &pageInval{GID: 1, VPN: 4, Downgrade: true}
	_, _ = g, i
}
`,
	}, DirVer{})
	wantRules(t, got,
		"pageGrant literal without Version",
		"pageInval literal without Version",
	)
}

func TestDirVerNegatives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/payload.go": vmPayloads,
		// Versioned literals and error replies are fine.
		"internal/vm/good.go": `package vm

func good() {
	_ = &pageGrant{Value: 7, Src: 2, Version: 9}
	_ = &pageInval{GID: 1, VPN: 4, Version: 9}
	_ = &pageGrant{Err: errSegv}
}
`,
		// The same shapes outside package vm are someone else's types.
		"internal/other/other.go": `package other

type pageGrant struct{ Value int }

func ok() { _ = &pageGrant{Value: 7} }
`,
		// Test files construct fixtures however they like.
		"internal/vm/fixture_test.go": `package vm

func fixture() { _ = &pageGrant{Value: 7} }
`,
	}, DirVer{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestDirVerAllowDirective(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/payload.go": vmPayloads,
		"internal/vm/reply.go": `package vm

func reply() {
	//popcornvet:allow dirver forwarded-op reply installs no page copy; nothing to order
	_ = &pageGrant{Value: 7, Src: -3}
}
`,
	}, DirVer{})
	if len(got) != 0 {
		t.Fatalf("directive did not suppress:\n%s", renderFindings(got))
	}
}

// TestDirVerHistoricalUnversionedFanout re-plants the defect dirver was
// written for (PR 3): the fan-out invalidation built per sharer without the
// transaction's Version, which replicas then cannot order against grants.
func TestDirVerHistoricalUnversionedFanout(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/payload.go": vmPayloads,
		"internal/vm/fanout.go": `package vm

func fanout(sharers []int, gid, vpn int, version uint64) []*pageInval {
	var out []*pageInval
	for range sharers {
		out = append(out, &pageInval{GID: gid, VPN: vpn})
	}
	_ = version
	return out
}
`,
	}, DirVer{})
	wantRules(t, got, "pageInval literal without Version")
}
