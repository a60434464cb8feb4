package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func popcornsim(args string) (string, error) {
	var out bytes.Buffer
	err := run(strings.Fields(args), &out)
	return out.String(), err
}

// TestEveryWorkloadOnEveryFlavour ranges the table: each workload runs on
// each flavour it has a form for, and the multikernel says so where it has
// no port.
func TestEveryWorkloadOnEveryFlavour(t *testing.T) {
	for _, wl := range workloads {
		for _, flavour := range flavours {
			args := "-os " + flavour + " -workload " + wl.name + " -threads 4 -iters 2 -pages 2"
			out, err := popcornsim(args)
			switch {
			case flavour == "multikernel" && wl.mk == nil:
				if err == nil || !strings.Contains(err.Error(), "has no multikernel port") {
					t.Errorf("popcornsim %s: err = %v, want the missing port named", args, err)
				}
			case flavour == "smp" && wl.name == "migrate":
				if err == nil || !strings.Contains(err.Error(), "needs >= 2 kernels") {
					t.Errorf("popcornsim %s: err = %v, want the single-kernel refusal", args, err)
				}
			case err != nil:
				t.Errorf("popcornsim %s: %v", args, err)
			case !strings.HasPrefix(out, flavour+"/") || !strings.Contains(out, "virtual throughput:"):
				t.Errorf("popcornsim %s printed no result:\n%s", args, out)
			}
		}
	}
}

// TestGoldenOutput pins what the command prints, byte for byte: one run
// and one comparison across all three flavours.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-os popcorn -workload futexchain-shared -threads 4 -iters 2 -pages 2", `popcorn/futexchain-shared threads=4 ops=8 elapsed=351.874µs (22735 ops/s)
virtual throughput: 22.7 ops/ms, 43.98 us/op
simulation work: 117 messages
`},
		{"-compare -workload threadbomb -threads 4 -iters 2 -pages 2", `== threadbomb, 4 threads on 64 cores ==
os           ops  elapsed   ops/ms
-----------  ---  --------  ------
popcorn      8    26.12µs   306   
smp          8    57µs      140   
multikernel  8    15.48µs   517   

`},
	} {
		if got, err := popcornsim(tc.args); err != nil || got != tc.want {
			t.Errorf("popcornsim %s: err %v, printed\n%s\nwant\n%s", tc.args, err, got, tc.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for args, want := range map[string]string{
		"-os plan9":                  "unknown OS flavour",
		"-workload bogus":            "unknown workload",
		"-compare -workload bogus":   "unknown workload",
		"-workload mmapstorm -cores": "flag needs an argument",
	} {
		if _, err := popcornsim(args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("popcornsim %s: err = %v, want one containing %q", args, err, want)
		}
	}
}

// decodedReport is the part of a -report document the tests read.
type decodedReport struct {
	Config map[string]string
	Runs   []struct {
		OS       string
		Ops      uint64
		Error    string
		Events   uint64
		Metrics  struct{ Counters map[string]uint64 }
		Kernels  []kernelReport
		Timeline []string
	}
}

// reportOf runs popcornsim with args plus -report, returning what it
// printed, the report file's bytes and the report decoded.
func reportOf(t *testing.T, args string) (string, []byte, decodedReport) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	out, err := popcornsim(args + " -report " + path)
	if err != nil {
		t.Fatalf("popcornsim %s: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep decodedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("popcornsim %s: report does not decode: %v", args, err)
	}
	return out, data, rep
}

// TestReport: -report writes the same bytes for the same command line,
// agrees with what the run printed, and holds popcorn's per-kernel state and
// timeline tail and every -compare flavour's run.
func TestReport(t *testing.T) {
	const golden = "-os popcorn -workload futexchain-shared -threads 4 -iters 2 -pages 2"
	out, first, rep := reportOf(t, golden)
	if _, again, _ := reportOf(t, golden); !bytes.Equal(first, again) {
		t.Fatalf("two runs of %s wrote different reports", golden)
	}
	if plain, _ := popcornsim(golden); out != plain {
		t.Fatalf("-report changed the printed output:\n%s\nwant\n%s", out, plain)
	}
	if len(rep.Runs) != 1 || rep.Config["workload"] != "futexchain-shared" || rep.Config["report"] != "" {
		t.Fatalf("report config %v with %d runs, want the set flags but -report and one run", rep.Config, len(rep.Runs))
	}
	run := rep.Runs[0]
	if want := fmt.Sprintf("simulation work: %d messages", run.Metrics.Counters["msg.sent"]); !strings.Contains(out, want) {
		t.Errorf("report msg.sent disagrees with the output: want %q in\n%s", want, out)
	}
	tl := run.Timeline
	if len(tl) != 41 || tl[0] != "(... 247 earlier spans elided)" || !strings.Contains(tl[40], "id=287 ") {
		t.Errorf("timeline tail:\n%s", strings.Join(tl, "\n"))
	}
	if run.Events == 0 || len(run.Kernels) != 8 {
		t.Errorf("run has %d events and %d kernel entries, want some and 8", run.Events, len(run.Kernels))
	}

	if _, _, rep := reportOf(t, "-kernels 4 -threads 4 -iters 2 -pages 2"); len(rep.Runs[0].Kernels) != 4 {
		t.Errorf("-kernels 4: %d zone-lock entries", len(rep.Runs[0].Kernels))
	}

	_, _, rep = reportOf(t, "-compare -workload futexchain -threads 4 -iters 2 -pages 2")
	var oses []string
	for _, r := range rep.Runs {
		oses = append(oses, r.OS)
		if popcorn := r.OS == "popcorn"; popcorn != (len(r.Kernels) > 0) || popcorn != (len(r.Timeline) > 0) {
			t.Errorf("%s run: %d kernel entries, %d timeline lines; only popcorn has them", r.OS, len(r.Kernels), len(r.Timeline))
		}
	}
	if strings.Join(oses, ",") != "popcorn,smp,multikernel" || rep.Runs[2].Error != errNoPort.Error() || rep.Runs[1].Error != "" {
		t.Errorf("-compare runs %v, errors %q", oses, []string{rep.Runs[1].Error, rep.Runs[2].Error})
	}

	_, _, rep = reportOf(t, "-workload migrate -threads 4 -iters 2 -pages 2")
	if c := rep.Runs[0].Metrics.Counters; c["tg.migrate"] != 1 || c["tg.spawn.remote"] == 0 {
		t.Errorf("migrate run counted %d migrations and %d remote spawns, want 1 and some", c["tg.migrate"], c["tg.spawn.remote"])
	}
}
