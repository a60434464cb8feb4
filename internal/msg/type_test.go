package msg

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestTypeStringExhaustive fails when a message type is added without a
// String() name: unnamed types degrade every trace and error message to a
// numeric placeholder. It is the one check of the names; popcornvet's
// msgproto analyzer does not repeat it.
func TestTypeStringExhaustive(t *testing.T) {
	seen := make(map[string]Type)
	for _, ty := range AllTypes() {
		s := ty.String()
		if s == "" || strings.HasPrefix(s, "msg.Type(") {
			t.Errorf("Type %d has no typeNames entry (String() = %q)", int(ty), s)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("types %d and %d share the String name %q", int(prev), int(ty), s)
		}
		seen[s] = ty
	}
	if TypeInvalid.String() == "" {
		t.Error("TypeInvalid must stringify to something")
	}
}

// TestAllTypesCoversEnum pins AllTypes against the enum bounds so the
// sentinel cannot silently drift.
func TestAllTypesCoversEnum(t *testing.T) {
	ts := AllTypes()
	if len(ts) == 0 {
		t.Fatal("AllTypes is empty")
	}
	if ts[0] != TypePing {
		t.Errorf("first type = %v, want TypePing", ts[0])
	}
	if ts[len(ts)-1] != TypeUser {
		t.Errorf("last type = %v, want TypeUser (did a new type land after the numTypes sentinel?)", ts[len(ts)-1])
	}
	for i, ty := range ts {
		if int(ty) != i+1 {
			t.Fatalf("AllTypes[%d] = %d, want dense enumeration", i, int(ty))
		}
	}
}

// TestHandlerTableBounds: the handler table is an array indexed by type, so
// Handles must answer false — not index — for anything outside the enum, a
// second registration must panic, and a delivered message of a type nobody
// registered (or no type at all) must fail the run instead of crashing it.
func TestHandlerTableBounds(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	ep := f.Endpoint(1)
	ep.Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	for ty, want := range map[Type]bool{TypePing: true, TypeUser: false, TypeInvalid: false, numTypes: false, -1: false, numTypes + 7: false} {
		if got := ep.Handles(ty); got != want {
			t.Errorf("Handles(%d) = %v, want %v", int(ty), got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering TypePing twice did not panic")
			}
		}()
		ep.Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	}()
	f.deliver(&Message{Type: numTypes + 7, From: 0, To: 1, Size: 8})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("Run = %v, want a no-handler failure for an out-of-range type", err)
	}
}
