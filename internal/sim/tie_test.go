package sim

import (
	"fmt"
	"testing"
	"time"
)

// The tie chooser is the one place same-instant order is decided: the heap
// pops an instant's events in insertion order and, when k > 1 of them are
// live, the chooser names the one that fires. These tests drive it with
// scripted choosers; TestSameInstantEventsFireInInsertionOrder covers the
// nil chooser.

// tieEngine returns an engine whose chooser answers with answer(k) and
// records every k it is asked with.
func tieEngine(answer func(k int) int) (Engine, *[]int) {
	e := NewEngine()
	asked := new([]int)
	e.choose = func(k int) int {
		*asked = append(*asked, k)
		return answer(k)
	}
	return e, asked
}

// tieScript schedules the named events at one instant; each appends its name
// to the returned order when it fires.
func tieScript(e Engine, names ...string) (*[]string, []EventHandle) {
	order := new([]string)
	var hs []EventHandle
	for _, name := range names {
		hs = append(hs, e.Schedule(time.Microsecond, func() { *order = append(*order, name) }))
	}
	return order, hs
}

func runTies(t *testing.T, e Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTieChooserPicksAmongLiveEvents(t *testing.T) {
	e, asked := tieEngine(func(k int) int { return k - 1 })
	defer e.Close()
	order, _ := tieScript(e, "a", "b", "c")
	runTies(t, e)
	if got := fmt.Sprint(*order); got != "[c b a]" {
		t.Fatalf("order %s, want the last-scheduled first: [c b a]", got)
	}
	if got := fmt.Sprint(*asked); got != "[3 2]" {
		t.Fatalf("chooser asked with k = %s, want [3 2]", got)
	}
	if instants, maxK := e.Ties(); instants != 2 || maxK != 3 {
		t.Fatalf("Ties() = %d/%d, want one per choice: 2/3", instants, maxK)
	}
}

func TestTieCanceledEventNotCounted(t *testing.T) {
	e, asked := tieEngine(func(k int) int { return k - 1 })
	defer e.Close()
	order, hs := tieScript(e, "a", "b", "c")
	hs[1].Cancel()
	runTies(t, e)
	if got := fmt.Sprint(*order); got != "[c a]" {
		t.Fatalf("order %s, want [c a]", got)
	}
	if got := fmt.Sprint(*asked); got != "[2]" {
		t.Fatalf("chooser asked with k = %s, want [2]: a canceled event is no candidate", got)
	}
}

func TestTieZeroDelayEventJoinsNextChoice(t *testing.T) {
	e, asked := tieEngine(func(k int) int { return k - 1 })
	defer e.Close()
	order, _ := tieScript(e, "a")
	e.Schedule(time.Microsecond, func() {
		*order = append(*order, "b")
		e.Schedule(0, func() { *order = append(*order, "x") })
	})
	runTies(t, e)
	if got := fmt.Sprint(*order); got != "[b x a]" {
		t.Fatalf("order %s, want [b x a]: x, scheduled by b, competes with a", got)
	}
	if got := fmt.Sprint(*asked); got != "[2 2]" {
		t.Fatalf("chooser asked with k = %s, want [2 2]", got)
	}
	if instants, maxK := e.Ties(); instants != 2 || maxK != 2 {
		t.Fatalf("Ties() = %d/%d, want 2/2", instants, maxK)
	}
}

// TestTieChooserNeverAskedAboutOneEvent runs processes, sleeps, timers and
// canceled events under a seeded chooser that fails on k < 2.
func TestTieChooserNeverAskedAboutOneEvent(t *testing.T) {
	rng := NewRNG(3)
	var bad []int
	e, asked := tieEngine(func(k int) int {
		if k < 2 {
			bad = append(bad, k)
		}
		return rng.intn(k)
	})
	defer e.Close()
	noop := func() {}
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				e.Schedule(time.Duration(j%3)*time.Microsecond, noop).Cancel()
				e.AfterFunc(time.Duration(j%4)*time.Microsecond, noop)
				p.Sleep(time.Duration(j%2) * time.Microsecond)
			}
		})
	}
	e.Schedule(time.Hour, noop) // a lone event
	runTies(t, e)
	if len(bad) > 0 {
		t.Fatalf("chooser asked with k = %v", bad)
	}
	if len(*asked) == 0 {
		t.Fatal("the script never tied: nothing was tested")
	}
}
