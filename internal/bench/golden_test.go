package bench

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_tables.txt from this tree's tables")

const goldenPath = "testdata/golden_tables.txt"

// digest is one golden line's value: the sha256 of a rendered table, or of
// its precise form when precise is set.
func digest(t *testing.T, out fmt.Stringer, precise bool) string {
	text := out.String()
	if precise {
		text = render(t, out)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
}

// traceDigest is a traced run's golden value: the sha256 of its span count
// and of every root operation's critical-path table, the attribution
// `benchtable -trace` prints.
func traceDigest(col *trace.Collector) string {
	text := fmt.Sprintf("%d spans\n", col.Len())
	for _, root := range col.RootNames() {
		text += col.CriticalPath(root).Table().String()
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
}

// render is an output at full precision. Series.String prints each value to
// three significant digits; the JSON form carries the float64s whole. A
// Table's JSON holds the same cells as its text, so only a Series has more
// to render.
func render(t *testing.T, out fmt.Stringer) string {
	text := out.String()
	if s, ok := out.(*stats.Series); ok {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		text += string(data)
	}
	return text
}

// TestAllExperimentsRunAtQuickScale and TestGoldenTables are the repo's
// one table gate, split by scale: every experiment runs at Quick and at
// Full, and the sha256 of each rendered table must equal the checked-in
// "ID scale sha256" line. A full line hashes a Series at full precision (its
// JSON form too), so a value that moves below the printed third digit fails
// it; a quick line hashes the printed text. An experiment with a traced
// variant also runs traced (subtest ID/trace), and that output must equal
// the untraced one at full precision: the tracer reads the virtual
// timestamps the run already produced and moves none. Its "ID/trace scale
// sha256" line pins the span trees: the span count and every root's
// critical-path table, so a change that moves spans but no table fails too.
// A PR that means to move a table regenerates the file with
// `go test ./internal/bench -run 'TestAllExperimentsRunAtQuickScale|TestGoldenTables' -update`
// and says which table moved and why; anything else that trips this changed
// virtual time. -update keeps the file's line order, so a moved table is a
// one-line diff and a new run is appended.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	checkGolden(t, Quick, "quick")
}

func TestGoldenTables(t *testing.T) {
	t.Run("full", func(t *testing.T) { checkGolden(t, Full, "full") })
}

// checkGolden runs every experiment at one scale, one subtest per
// experiment, and checks or, under -update, rewrites that scale's lines of
// the golden file; the other scale's lines pass through unchanged.
func checkGolden(t *testing.T, scale Scale, label string) {
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || (f[1] != "quick" && f[1] != "full") {
			t.Fatalf("%s: line %q is not \"ID quick|full sha256\"", goldenPath, line)
		}
		key := f[0] + " " + f[1]
		want[key] = f[2]
		order = append(order, key)
	}

	got := map[string]string{}
	// pin records one golden line's digest and checks it against the file.
	pin := func(t *testing.T, key, sum string) {
		got[key] = sum
		if _, pinned := want[key]; !pinned {
			order = append(order, key)
		}
		if sum != want[key] && !*updateGolden {
			t.Errorf("%s changed: sha256 %s, golden %q", key, sum, want[key])
		}
	}
	runs, all := 0, 0
	for _, e := range Experiments() {
		all++
		if e.RunTraced != nil {
			all++
		}
		t.Run(e.ID, func(t *testing.T) {
			runs++
			out, err := e.Run(scale)
			if err != nil {
				t.Fatal(err)
			}
			pin(t, e.ID+" "+label, digest(t, out, scale == Full))
			if e.RunTraced == nil {
				return
			}
			t.Run("trace", func(t *testing.T) {
				runs++
				traced, col, err := e.RunTraced(scale)
				if err != nil {
					t.Fatal(err)
				}
				if sum, plain := digest(t, traced, true), digest(t, out, true); sum != plain {
					t.Errorf("traced output differs from untraced: %s traced %s, untraced %s", e.ID, sum, plain)
				}
				pin(t, e.ID+"/trace "+label, traceDigest(col))
			})
		})
	}
	// Stale pins and -update need every experiment; a -run filter that
	// selects a few subtests checks only those.
	if runs < all || t.Failed() {
		return
	}
	var lines []string
	for _, key := range order {
		sum, ok := got[key]
		switch {
		case ok:
			lines = append(lines, key+" "+sum)
		case !strings.HasSuffix(key, " "+label):
			lines = append(lines, key+" "+want[key])
		case !*updateGolden:
			t.Errorf("golden file pins %q, which no experiment ran", key)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
