package sim

import (
	"testing"
	"time"
)

func TestAfterFuncFiresOnTime(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	e.AfterFunc(5*time.Millisecond, func() { firedAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v", firedAt)
	}
}

func TestAfterFuncStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}
