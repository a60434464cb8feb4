package vetcheck

import (
	"path/filepath"
	"strings"
	"testing"
)

// standIns are minimal versions of the shipped packages whose declarations
// the analyzers anchor on. findingsFor adds one under a fixture that imports
// it and does not declare that package itself, so fixtures compile while
// declaring only their own types. Each is clean under every analyzer.
var standIns = map[string]string{
	"sim": `package sim

type Proc struct{}

func (p *Proc) Sleep(d int) {}

type Mutex struct{}

func (m *Mutex) Lock(p *Proc)   {}
func (m *Mutex) Unlock(p *Proc) {}

type RWMutex struct{}

func (l *RWMutex) Lock(p *Proc)    {}
func (l *RWMutex) Unlock(p *Proc)  {}
func (l *RWMutex) RLock(p *Proc)   {}
func (l *RWMutex) RUnlock(p *Proc) {}

type Engine struct{}

func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc { return nil }
func (e *Engine) Schedule(d int, fn func())                 {}
func (e *Engine) Start(rec *Proc, fn func(p *Proc))         {}
`,
	"msg": `package msg

import "repro/internal/sim"

type Type int

const (
	TypeInvalid Type = iota
	TypePing
	TypePageFetch
	TypePageInvalidate
)

type NodeID int

type Message struct {
	Type     Type
	From, To NodeID
}

type Kind[Req, Rep any] struct{ Type Type }

func (k *Kind[Req, Rep]) Call(p *sim.Proc, ep *Endpoint, to, role NodeID, req Req) (Rep, error) {
	var r Rep
	return r, nil
}

type Handler func(p *sim.Proc, m *Message) *Message

type Fabric struct{ endpoints []*Endpoint }

func (f *Fabric) Endpoint(n NodeID) *Endpoint { return nil }

type Endpoint struct{}

func (ep *Endpoint) Handle(t Type, h Handler)                          {}
func (ep *Endpoint) Send(p *sim.Proc, m *Message)                      {}
func (ep *Endpoint) Call(p *sim.Proc, m *Message) (*Message, error)    { return nil, nil }
func (ep *Endpoint) CallEach(p *sim.Proc, to []NodeID, m func(NodeID) *Message) ([]*Message, error) {
	return nil, nil
}
`,
	"kernel": `package kernel

type Kernel struct{ Node int }

type Cluster struct{ Kernels []*Kernel }
`,
}

// withStandIns returns files plus every stand-in package they import,
// transitively, that they do not declare themselves.
func withStandIns(files map[string]string) map[string]string {
	out := make(map[string]string)
	declared := make(map[string]bool)
	for path, src := range files {
		out[path] = src
		declared[filepath.Dir(path)] = true
	}
	var need func(src string)
	need = func(src string) {
		for name, standIn := range standIns {
			dir := "internal/" + name
			if strings.Contains(src, `"repro/`+dir+`"`) && !declared[dir] {
				declared[dir] = true
				out[dir+"/standin.go"] = standIn
				need(standIn)
			}
		}
	}
	for _, src := range files {
		need(src)
	}
	return out
}

func findingsFor(t *testing.T, files map[string]string, a Analyzer) []Finding {
	t.Helper()
	tree, err := loadSource(withStandIns(files))
	if err != nil {
		t.Fatalf("loadSource: %v", err)
	}
	return Run(tree, []Analyzer{a})
}

func wantRules(t *testing.T, got []Finding, wantSubstrings ...string) {
	t.Helper()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(wantSubstrings), renderFindings(got))
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, want)
		}
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestSimTimePositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/bad.go": `package kernel

import (
	"math/rand"
	"sync"
	"time"
)

func bad() {
	_ = time.Now()
	time.Sleep(time.Second)
	_ = rand.Intn(4)
	var mu sync.Mutex
	_ = mu
	go func() {}()
}
`,
	}, SimTime{})
	wantRules(t, got,
		"time.Now",
		"time.Sleep",
		"global math/rand.Intn",
		"real sync.Mutex",
		"bare go statement",
	)
}

func TestSimTimeNegatives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		// Duration arithmetic, instanced rand and the sim primitives are all
		// fine inside a managed package.
		"internal/kernel/good.go": `package kernel

import (
	"math/rand"
	"time"
)

type engine struct{ d time.Duration }

func good(rng *rand.Rand) time.Duration {
	src := rand.New(rand.NewSource(7))
	_ = src.Intn(4)
	return 3 * time.Millisecond
}
`,
		// Unmanaged packages may use the wall clock: the CLI harness times
		// real execution.
		"cmd/popcornsim/clock.go": `package main

import "time"

func wall() time.Time { return time.Now() }
`,
		// Test files run outside the simulated world.
		"internal/kernel/guard_test.go": `package kernel

import "time"

func guard() { time.Sleep(time.Second) }
`,
	}, SimTime{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestSimTimeSeededEngineRNG(t *testing.T) {
	// The engine's own randomness pattern: a package-local splitmix64
	// source seeded per engine, no math/rand anywhere. This is the shape
	// internal/sim/rng.go ships; it must stay clean so tie-shuffled
	// schedule exploration (popcornmc) never trips its own linter.
	got := findingsFor(t, map[string]string{
		"internal/sim/rng.go": `package sim

type RNG struct{ state uint64 }

func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }
`,
		"internal/sim/engine.go": `package sim

type Engine struct {
	rng    *RNG
	choose func(k int) int
}

func WithTieShuffle() func(*Engine) {
	return func(e *Engine) { e.choose = func(k int) int { return e.rng.Intn(k) } }
}
`,
	}, SimTime{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}

	// The pattern it replaced: breaking ties from the global math/rand
	// source, which no seed flag can make reproducible.
	got = findingsFor(t, map[string]string{
		"internal/sim/engine.go": `package sim

import "math/rand"

func choose(k int) int { return rand.Intn(k) }
`,
	}, SimTime{})
	wantRules(t, got, "global math/rand.Intn")
}

func TestSimTimeRenamedImport(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/renamed.go": `package vm

import clock "time"

func bad() { _ = clock.Now() }
`,
	}, SimTime{})
	wantRules(t, got, "time.Now")
}
