package task

import (
	"strings"
	"testing"
)

func TestNewTaskDefaults(t *testing.T) {
	tk := New(7, 7, 2)
	if tk.ID != 7 || tk.TGID != 7 || tk.Kernel != 2 {
		t.Fatalf("New = %+v", tk)
	}
	if tk.State != StateNew {
		t.Fatalf("state = %v", tk.State)
	}
}

func TestContextBytesMatchesLayout(t *testing.T) {
	if want := 16*8 + 3*8 + 512 + 8; ContextBytes != want {
		t.Fatalf("ContextBytes = %d, want %d", ContextBytes, want)
	}
}

func TestStringers(t *testing.T) {
	if StateRunning.String() != "running" {
		t.Fatalf("StateRunning = %q", StateRunning)
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Fatal("unknown state stringer")
	}
	tk := New(3, 4, 1)
	s := tk.String()
	for _, want := range []string{"id=3", "tgid=4", "kernel=1", "new"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Task.String() = %q missing %q", s, want)
		}
	}
}
