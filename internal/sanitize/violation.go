package sanitize

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Violation is one detected protocol or memory-model failure. Coherence
// violations (single-writer, stale-read, lost-writeback, no-grant,
// version-regress) are recorded as they fire; race reports are collected and
// filtered against the inferred synchronisation addresses at the end of the
// run.
type Violation struct {
	// Kind classifies the violation: "single-writer", "stale-read",
	// "lost-writeback", "no-grant", "version-regress" or "race".
	Kind string
	// At is the virtual time the violation was detected.
	At sim.Time
	// Node is the kernel the violating action ran on (-1 if not applicable).
	Node int
	// GID/VPN identify the page involved.
	GID int64
	VPN mem.VPN
	// Detail is the human-readable description.
	Detail string
	// history is the page's protocol history when the violation fired,
	// oldest first.
	history []record
}

// Error makes *Violation usable as a panic value that the engine's process
// recovery turns into a run failure.
func (v *Violation) Error() string {
	return fmt.Sprintf("sanitize: %s violation at %v on k%d: %s", v.Kind, v.At, v.Node, v.Detail)
}

// String renders the violation with its attached protocol history.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s violation at %v on k%d: %s", v.Kind, v.At, v.Node, v.Detail)
	if len(v.history) > 0 {
		page := pageToken(v.GID, v.VPN)
		fmt.Fprintf(&b, "\n  page history (%s):", page)
		for _, r := range v.history {
			fmt.Fprintf(&b, "\n    %12v  k%-2d %-12s %s %s", r.at, r.node, r.kind, page, r.detail())
		}
	}
	return b.String()
}

// record is one protocol step on a page, kept as raw fields and rendered only
// when a violation prints. a and b are a grant's exclusive and fresh, a
// revoke's downgrade and hadCopy; value is the value a grant or revoke
// carried, or the rights a crash reclaimed.
type record struct {
	at    sim.Time
	kind  string // san.grant, san.grant-dead, san.revoke, san.crash-reclaim or san.violation
	node  msg.NodeID
	a, b  bool
	value int64
	v     *Violation // san.violation
}

func (r record) detail() string {
	switch r.kind {
	case "san.grant":
		mode := "shared"
		if r.a {
			mode = "excl"
		}
		return fmt.Sprintf("%s to k%d fresh=%v val=%d", mode, r.node, r.b, r.value)
	case "san.grant-dead":
		return fmt.Sprintf("grant to dead k%d never installs; not recorded", r.node)
	case "san.revoke":
		return fmt.Sprintf("at k%d downgrade=%v hadCopy=%v val=%d", r.node, r.a, r.b, r.value)
	case "san.crash-reclaim":
		return fmt.Sprintf("k%d died holding rights=%d", r.node, r.value)
	}
	return r.v.Kind + ": " + r.v.Detail
}

// pageToken names a page in reports.
func pageToken(gid int64, vpn mem.VPN) string {
	return fmt.Sprintf("g%d/p%#x", gid, uint64(vpn))
}
