package main

import (
	"bytes"
	"strings"
	"testing"
)

func sim(args string) (string, error) {
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
			out, err := sim(args)
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

// TestGoldenOutput pins what the command prints, byte for byte: one run,
// the same run with its span timeline, and one comparison across all three
// flavours.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-os popcorn -workload futexchain-shared -threads 4 -iters 2 -pages 2", `popcorn/futexchain-shared threads=4 ops=8 elapsed=351.874µs (22735 ops/s)
virtual throughput: 22.7 ops/ms, 43.98 us/op
simulation work: 117 messages
`},
		{"-os popcorn -workload futexchain-shared -threads 4 -iters 2 -pages 2 -trace 6", `popcorn/futexchain-shared threads=4 ops=8 elapsed=351.874µs (22735 ops/s)
virtual throughput: 22.7 ops/ms, 43.98 us/op
simulation work: 117 messages

--- trace (most recent spans) ---
(... 281 earlier spans elided)
   350.202µs → 351.322µs    k1  handle.group-exit        id=282 parent=276
   350.202µs → 351.322µs    k1  wire.group-exit.reply    id=283 parent=282
   350.202µs → 351.492µs    k2  handle.group-exit        id=284 parent=278
   350.202µs → 351.322µs    k3  handle.group-exit        id=285 parent=280
   350.202µs → 351.322µs    k3  wire.group-exit.reply    id=286 parent=285
   350.372µs → 351.492µs    k2  wire.group-exit.reply    id=287 parent=284
`},
		{"-compare -workload threadbomb -threads 4 -iters 2 -pages 2", `== threadbomb, 4 threads on 64 cores ==
os           ops  elapsed   ops/ms
-----------  ---  --------  ------
popcorn      8    26.12µs   306   
smp          8    57µs      140   
multikernel  8    15.48µs   517   

`},
	} {
		if got, err := sim(tc.args); err != nil || got != tc.want {
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

		// Output flags the selected run cannot honour fail, not vanish.
		"-os smp -workload mmapstorm -threads 4 -trace 5 -snapshot": "need -os popcorn",
		"-os multikernel -snapshot":                                 "need -os popcorn",
		"-compare -trace 3":                                         "works with -compare",
		"-compare -metrics":                                         "works with -compare",
		"-compare -metrics -trace 3 -snapshot":                      "works with -compare",
	} {
		if _, err := sim(args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("popcornsim %s: err = %v, want one containing %q", args, err, want)
		}
	}
}
