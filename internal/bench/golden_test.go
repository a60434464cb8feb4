package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_tables.txt from this tree's tables")

const goldenPath = "testdata/golden_tables.txt"

// goldenTables renders what the golden file pins, one "ID scale sha256" line
// per run: every experiment at Quick, plus the two tie-shuffled experiments
// at Full, where the engine's RNG stream — and so every Schedule call's
// position in it — decides the interleaving.
func goldenTables(t *testing.T) []string {
	type run struct {
		id    string
		scale Scale
		label string
	}
	var runs []run
	for _, e := range Experiments() {
		runs = append(runs, run{e.ID, Quick, "quick"})
	}
	runs = append(runs, run{"R1", Full, "full"}, run{"R3", Full, "full"})
	var lines []string
	for _, r := range runs {
		exp, ok := Find(r.id)
		if !ok {
			t.Fatalf("experiment %s missing", r.id)
		}
		table, err := exp.Run(r.scale)
		if err != nil {
			t.Fatalf("%s %s: %v", r.id, r.label, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %x", r.id, r.label, sha256.Sum256([]byte(table.String()))))
	}
	return lines
}

// TestGoldenTables is the behaviour clock's commit-to-commit gate: the
// sha256 of each experiment's rendered table must equal the checked-in
// digest. A PR that means to move a table regenerates the file with
// `go test ./internal/bench -run TestGoldenTables -update` and says which
// table moved and why; anything else that trips this changed virtual time.
func TestGoldenTables(t *testing.T) {
	got := goldenTables(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden file pins %d runs, this tree has %d; regenerate with -update", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("table changed: got %q, golden %q", got[i], want[i])
		}
	}
}
