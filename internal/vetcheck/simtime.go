package vetcheck

import (
	"go/ast"
	"go/types"
)

// SimTime enforces the determinism rules inside sim-managed packages:
//
//   - no wall-clock reads or real timers (time.Now, time.Sleep, time.After,
//     time.AfterFunc, time.NewTimer, time.NewTicker, time.Tick, time.Since,
//     time.Until) — virtual time comes from the engine;
//   - no global math/rand state (rand.Intn, rand.Seed, ...) — randomness
//     must flow from the engine's seeded source (rand.New/rand.NewSource
//     constructors are fine);
//   - no bare go statements — concurrency goes through Engine.Spawn so the
//     scheduler owns every interleaving;
//   - no real sync primitives (sync.Mutex, sync.RWMutex, sync.WaitGroup,
//     sync.Cond) — they block the host goroutine outside the engine's
//     control; use the sim equivalents.
//
// Test files are never loaded: they run outside the simulated world and
// verify with wall-clock timeouts.
type SimTime struct{}

// Name implements Analyzer.
func (SimTime) Name() string { return "simtime" }

// forbiddenTimeFuncs read the wall clock or create real timers.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
	"Since": true, "Until": true,
}

// seededRandFuncs are the math/rand constructors that do not touch the
// global source.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// forbiddenSyncTypes are the real blocking primitives with sim equivalents.
var forbiddenSyncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true,
}

// nondeterministic reports whether obj is a standard-library function whose
// result differs from run to run — a wall-clock read or real timer, or a
// draw from math/rand's process-global source — and names its package.
// simtime polices these in the sim-managed packages, detorder in the rest of
// the event-visible world.
func nondeterministic(obj types.Object) (lib string, ok bool) {
	fn, isFunc := obj.(*types.Func)
	if !isFunc || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	switch {
	case fromStd(fn, "time") && forbiddenTimeFuncs[fn.Name()]:
		return "time", true
	case fromStd(fn, "math/rand") && !seededRandFuncs[fn.Name()]:
		return "math/rand", true
	}
	return "", false
}

// Check implements Analyzer.
func (SimTime) Check(t *Tree) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !pkg.Managed {
			continue
		}
		flag := func(n ast.Node, msg string) {
			out = append(out, Finding{Pos: t.Fset.Position(n.Pos()), Rule: "simtime", Message: msg})
		}
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.GoStmt:
					flag(node, "bare go statement in sim-managed package; "+
						"use sim.Engine.Spawn so the scheduler controls the interleaving")
				case *ast.SelectorExpr:
					obj := pkg.info.Uses[node.Sel]
					switch lib, _ := nondeterministic(obj); {
					case lib == "time":
						flag(node, "time."+obj.Name()+" reads the wall clock; "+
							"use the engine's virtual time (Proc.Sleep, Engine.Now, sim.Timer)")
					case lib == "math/rand":
						flag(node, "global math/rand."+obj.Name()+" breaks seed determinism; "+
							"draw from the engine's seeded source (Engine.Rand)")
					case fromStd(obj, "sync") && forbiddenSyncTypes[obj.Name()]:
						flag(node, "real sync."+obj.Name()+" blocks outside the engine's control; "+
							"use the sim."+obj.Name()+" equivalent")
					}
				}
				return true
			})
		}
	}
	return out
}
