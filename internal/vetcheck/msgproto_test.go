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

type Kind[Req, Rep any] struct{ Type Type }

func (k *Kind[Req, Rep]) Call(to int, req Req) (Rep, error) { var r Rep; return r, nil }
func (k *Kind[Req, Rep]) Send(to int, req Req)              {}
func (k *Kind[Req, Rep]) Handle(h func(req *Req) Rep)       {}

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

// kindFixture declares fetch, a kind of TypeOrphan, and wires it with calls.
func kindFixture(calls string) map[string]string {
	return map[string]string{
		"internal/msg/msg.go":      msgFixture,
		"internal/msg/endpoint.go": msgUserFixture,
		"internal/vm/wire.go": `package vm

import "repro/internal/msg"

type req struct{ N int }

var fetch = msg.Kind[req, req]{Type: msg.TypeOrphan}

func wire() {
	fetch.Handle(func(r *req) req { return *r })
	` + calls + `
}
`,
	}
}

// TestMsgProtoKindSendCountsAsSend: a kind's message names its Type in the
// kind's declaration, not in a Message literal; sending the kind sends the
// Type. TypeOrphan is sent only that way here.
func TestMsgProtoKindSendCountsAsSend(t *testing.T) {
	wantRules(t, findingsFor(t, kindFixture("fetch.Send(2, req{N: 1})"), MsgProto{}))
}

// TestMsgProtoUnsentKind: a kind that is only handled is dead protocol
// surface, and so is its Type when nothing else sends it.
func TestMsgProtoUnsentKind(t *testing.T) {
	wantRules(t, findingsFor(t, kindFixture(""), MsgProto{}),
		"TypeOrphan is never sent", "fetch is never sent")
}

// TestMsgProtoTypeOfTwoKinds: two kinds of one Type would share its pool
// slots with two payload types; the second declaration is flagged.
func TestMsgProtoTypeOfTwoKinds(t *testing.T) {
	files := kindFixture("fetch.Send(2, req{N: 1})\n\tagain.Send(2, 3)")
	files["internal/vm/again.go"] = `package vm

import "repro/internal/msg"

var again = msg.Kind[int, int]{Type: msg.TypeOrphan}
`
	wantRules(t, findingsFor(t, files, MsgProto{}), "a second kind declares the Type of")
}

// TestMsgProtoDiscardedKindCall: Kind.Call's error is an RPC's like Call's.
func TestMsgProtoDiscardedKindCall(t *testing.T) {
	wantRules(t, findingsFor(t, kindFixture("fetch.Call(2, req{})\n\t_, _ = fetch.Call(2, req{})"), MsgProto{}),
		"Call reply and error discarded", "Call error discarded")
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
