package vetcheck

import (
	"strings"
	"testing"
)

// msgFixture declares a two-type enum where TypeGood is sent and TypeOrphan
// is never sent.
const msgFixture = `package msg

type Type int

const (
	TypeInvalid Type = iota
	TypeGood
	TypeOrphan
	numTypes
)

type Message struct {
	Type Type
	To   int
}
`

const msgUserFixture = `package msg

type Endpoint struct{}

func (ep *Endpoint) Handle(t Type, h func())       {}
func (ep *Endpoint) Call(m int) (int, error)      { return 0, nil }
func (ep *Endpoint) CallEach(m int) (int, error)  { return 0, nil }

func NewWith[T any](ep *Endpoint, t Type, to, size int, payload T) *Message { return nil }
func Reply[T any](ep *Endpoint, req *Message, size int, payload T) *Message { return nil }

func wire(ep *Endpoint) {
	ep.Handle(TypeGood, func() {})
	send(&Message{Type: TypeGood, To: 1})
}

func send(m *Message) {}
`

func TestMsgProtoOrphanType(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
	}, MsgProto{})
	wantRules(t, got, "TypeOrphan is never sent")
}

func TestMsgProtoFullyWiredIsClean(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      strings.Replace(msgFixture, "\tTypeOrphan\n", "", 1),
		"internal/msg/endpoint.go": msgUserFixture,
	}, MsgProto{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestMsgProtoCrossPackageWiringCounts(t *testing.T) {
	// A send issued from another package must satisfy the wiring
	// requirement for TypeOrphan.
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
		"internal/vm/wire.go": `package vm

import "repro/internal/msg"

func wire(ep *msg.Endpoint) {
	_ = &msg.Message{Type: msg.TypeOrphan, To: 2}
}
`,
	}, MsgProto{})
	wantRules(t, got)
}

func TestMsgProtoNewWithCountsAsSend(t *testing.T) {
	// A pooled message names its type as NewWith's second argument, after
	// the endpoint whose pool it comes from, not in a Message literal; a
	// Reply names none. TypeOrphan is sent only that way here.
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
		"internal/vm/wire.go": `package vm

import "repro/internal/msg"

type req struct{ N int }

func wire(ep *msg.Endpoint) {
	_ = msg.NewWith(ep, msg.TypeOrphan, 2, 64, req{N: 1})
	_ = msg.Reply(ep, nil, 64, req{N: 2})
}
`,
	}, MsgProto{})
	wantRules(t, got)
}

func TestMsgProtoDiscardedCall(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
		"internal/vm/calls.go": `package vm

import "repro/internal/msg"

// local has the RPC methods' names but is not the fabric's endpoint.
type local struct{}

func (local) Call(m int) {}

func bad(e *msg.Endpoint, l local) {
	e.Call(1)
	_, _ = e.CallEach(2)
	l.Call(3)
}

func good(e *msg.Endpoint) error {
	r, err := e.Call(1)
	_ = r
	if err != nil {
		return err
	}
	// Discarding only the reply while checking the error is fine.
	_, err = e.CallEach(2)
	return err
}
`,
	}, MsgProto{})
	// The orphan-type finding from the shared fixture comes first (msg.go
	// sorts before vm/calls.go); then the two discard sites.
	wantRules(t, got,
		"TypeOrphan is never sent",
		"Call reply and error discarded",
		"CallEach error discarded",
	)
}

// TestMsgProtoTypeAssignmentCountsAsSend: a pooled message is typed by
// assignment, not in a literal (msg's heartbeats); assigning the Type field
// of anything but a Message sends nothing.
func TestMsgProtoTypeAssignmentCountsAsSend(t *testing.T) {
	for assign, want := range map[string][]string{
		"h.Type = msg.TypeOrphan":              {"TypeOrphan is never sent"},
		"m.Type, m.To = msg.TypeOrphan, 2":     nil,
		"h.Type, m.Type = msg.TypeGood, fetch": nil,
	} {
		got := findingsFor(t, map[string]string{
			"internal/msg/msg.go":      msgFixture,
			"internal/msg/endpoint.go": msgUserFixture,
			"internal/vm/wire.go": `package vm

import "repro/internal/msg"

type header struct{ Type msg.Type }

const fetch = msg.TypeOrphan

func wire(m *msg.Message, h *header) {
	` + assign + `
}
`,
		}, MsgProto{})
		wantRules(t, got, want...)
	}
}

// TestMsgProtoMembersByValue: a use names an enum member by its constant
// value, so wiring through an alias constant counts for the member it
// equals.
func TestMsgProtoMembersByValue(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
		"internal/vm/wire.go": `package vm

import "repro/internal/msg"

const fetch = msg.TypeOrphan

func wire(ep *msg.Endpoint) {
	_ = &msg.Message{Type: (fetch), To: 2}
}
`,
	}, MsgProto{})
	wantRules(t, got)
}
