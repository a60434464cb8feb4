package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestJSONRoundTrip runs one experiment three times through the command and
// decodes the snapshot it wrote.
func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.json")
	if code := run([]string{"-exp", "T1", "-scale", "quick", "-reps", "3", "-json", path}, io.Discard); code != 0 {
		t.Fatalf("run exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Scale       string
		Experiments []struct {
			ID          string
			GenNS       int64 `json:"gen_ns"`
			GenNSMedian int64 `json:"gen_ns_median"`
			Data        struct{ Kind string }
		}
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Scale != "quick" || len(s.Experiments) != 1 {
		t.Fatalf("snapshot = scale %q, %d experiments; want quick, 1", s.Scale, len(s.Experiments))
	}
	if e := s.Experiments[0]; e.ID != "T1" || e.GenNS <= 0 || e.GenNSMedian < e.GenNS || e.Data.Kind != "series" {
		t.Fatalf("experiment = %+v, want T1 with 0 < gen_ns <= gen_ns_median and a series", e)
	}
}

// TestRepsCatchADifferingRep runs an experiment whose output moves below
// the printed digits on its third run: repeat must fail it, naming the rep.
func TestRepsCatchADifferingRep(t *testing.T) {
	runs := 0
	exp := bench.Experiment{ID: "X1", Run: func(bench.Scale) (fmt.Stringer, error) {
		runs++
		y := 1.0
		if runs == 3 {
			y += 1e-9
		}
		s := stats.NewSeries("X1", "x", "y", 1)
		return s, s.AddLine("line", []float64{y})
	}}
	if _, err := repeat(exp, bench.Quick, 2, false); err != nil {
		t.Fatalf("two equal reps: %v", err)
	}
	runs = 0
	if _, err := repeat(exp, bench.Quick, 4, false); err == nil || !strings.Contains(err.Error(), "rep 3") {
		t.Fatalf("err = %v, want rep 3 to differ", err)
	}
}

// TestTraceExportDeterministic runs T2 traced twice, exporting its spans:
// same seed, same spans, same bytes, and each export loads as a Chrome
// trace.
func TestTraceExportDeterministic(t *testing.T) {
	var exports [2][]byte
	for i := range exports {
		dir := t.TempDir()
		if code := run([]string{"-exp", "T2", "-scale", "quick", "-trace", "-traceout", dir}, io.Discard); code != 0 {
			t.Fatalf("run exit %d", code)
		}
		data, err := os.ReadFile(filepath.Join(dir, "T2.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.ValidateChromeTrace(data); err != nil {
			t.Fatal(err)
		}
		exports[i] = data
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("two traced T2 runs exported different span trees")
	}
}

// TestBadArguments checks that a flag combination the command cannot honour
// exits 2 and writes nothing.
func TestBadArguments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"-scale", "huge"},
		{"-exp", "T9"},
		{"-exp", "T3", "-scale", "quick", "-traceout", dir},
		{"-exp", "T3", "-scale", "quick", "-reps", "0"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("benchtable %v: exit %d, want 2", args, code)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-traceout without -trace created %s", dir)
	}
}
