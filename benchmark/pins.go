package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// pinSeed is the only seed pins exist for.
const pinSeed = 1

// pinsPath is where -repin writes, relative to the repo root. The running
// binary compares against the copy embedded at build time, so a re-pin only
// takes effect through a rebuild and a visible diff of this file.
const pinsPath = "benchmark/pins.json"

//go:embed pins.json
var pinsJSON []byte

// workloadPin is the virtual-clock result of one synthetic workload at
// pinSeed: it must not move unless a PR says it changes the model.
type workloadPin struct {
	Ops      uint64            `json:"ops"`
	VirtNS   int64             `json:"virt_ns"`
	Counters map[string]uint64 `json:"counters"`
}

type pinFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]workloadPin `json:"workloads"`
	// Tables is sha256 of each suite table's rendered bytes, by experiment.
	Tables map[string]string `json:"tables"`
}

var pinned = mustParsePins(pinsJSON)

func mustParsePins(data []byte) *pinFile {
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		panic(fmt.Sprintf("benchmark/pins.json: %v", err))
	}
	return &p
}

func pinOf(r rep) workloadPin {
	return workloadPin{Ops: r.Ops, VirtNS: r.Virt.Nanoseconds(), Counters: r.Counters}
}

func (a workloadPin) equal(b workloadPin) bool {
	if a.Ops != b.Ops || a.VirtNS != b.VirtNS || len(a.Counters) != len(b.Counters) {
		return false
	}
	for k, v := range a.Counters {
		if bv, ok := b.Counters[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func tableDigest(table string) string {
	sum := sha256.Sum256([]byte(table))
	return hex.EncodeToString(sum[:])
}

// changedTables lists the experiments whose table differs from its pin (or
// has none), sorted.
func (p *pinFile) changedTables(tables map[string]string) []string {
	var changed []string
	for id, tab := range tables {
		if p.Tables[id] != tableDigest(tab) {
			changed = append(changed, id)
		}
	}
	sort.Strings(changed)
	return changed
}

// matches reports whether r equals the pin of workload name. Suite is
// pinned by its tables; the others by ops, virtual elapsed and counters.
func (p *pinFile) matches(name string, r rep) bool {
	if r.Tables != nil {
		return len(r.Tables) == len(p.Tables) && len(p.changedTables(r.Tables)) == 0
	}
	pin, ok := p.Workloads[name]
	return ok && pin.equal(pinOf(r))
}

// repin replaces the pins of the given reps and writes the file.
func (p *pinFile) repin(reps map[string]rep) error {
	if p.Workloads == nil {
		p.Workloads = make(map[string]workloadPin)
	}
	for name, r := range reps {
		if r.Tables != nil {
			p.Tables = make(map[string]string, len(r.Tables))
			for id, tab := range r.Tables {
				p.Tables[id] = tableDigest(tab)
			}
			continue
		}
		p.Workloads[name] = pinOf(r)
	}
	p.Seed = pinSeed
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(data, '\n'), 0o644)
}
