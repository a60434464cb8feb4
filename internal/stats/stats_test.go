package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40} {
		h.Observe(d * time.Microsecond)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Mean() != 25*time.Microsecond {
		t.Fatalf("Mean = %v, want 25µs", h.Mean())
	}
	if h.min != 10*time.Microsecond || h.Max() != 40*time.Microsecond {
		t.Fatalf("min/Max = %v/%v", h.min, h.Max())
	}
	if h.sum != 100*time.Microsecond {
		t.Fatalf("sum = %v", h.sum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.min != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.min != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: min=%v max=%v", h.min, h.Max())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	// Bucket resolution is power-of-two, so accept [500µs/2, 500µs*2].
	if p50 < 250*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, outside plausible range", p50)
	}
	if h.Quantile(1.0) > h.Max()*2 {
		t.Fatalf("p100 = %v way above max %v", h.Quantile(1.0), h.Max())
	}
	if h.Quantile(0) == 0 {
		t.Fatal("q=0 should return the first bucket edge, not 0")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		var h Histogram
		for _, s := range samples {
			h.Observe(time.Duration(s))
		}
		prev := time.Duration(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOfEdges(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
	}
	for _, tt := range tests {
		if got := bucketOf(tt.d); got != tt.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestRegistryReusesMetrics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("Counter did not return the same instance")
	}
	h1 := r.Histogram("y")
	h1.Observe(time.Second)
	if r.Histogram("y").Count() != 1 {
		t.Fatal("Histogram did not return the same instance")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
}

// TestRegistryJSON: the registry renders every counter and histogram under
// its name, names sorted, histogram fields in nanoseconds.
func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(7)
	r.Counter("b.ops").Inc()
	r.Histogram("lat").Observe(3 * time.Microsecond)
	r.Histogram("lat").Observe(time.Microsecond)
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"counters":{"b.ops":1,"ops":7},"histograms":{"lat":{"count":2,"sum":4000,"min":1000,"p50":1024,"p99":3000,"max":3000}}}`
	if string(got) != want {
		t.Fatalf("registry JSON\n got %s\nwant %s", got, want)
	}
}

func TestTableAlignsColumns(t *testing.T) {
	tab := NewTable("T", "name", "value")
	tab.AddRow("a", "1")
	tab.AddRow("longer-name", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== T ==") {
		t.Fatalf("missing title: %q", lines[0])
	}
	// All data lines should have the value column at the same offset.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "22")
	if idx1 != idx2 {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestTableRowPaddingAndTruncation(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only-one")
	tab.AddRow("x", "y", "dropped")
	if tab.Rows() != 2 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	out := tab.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("extra cell not dropped:\n%s", out)
	}
}

func TestSeriesLineValidation(t *testing.T) {
	s := NewSeries("fig", "threads", "ops/s", 1, 2, 4)
	if err := s.AddLine("popcorn", []float64{10, 20, 40}); err != nil {
		t.Fatalf("AddLine: %v", err)
	}
	if err := s.AddLine("bad", []float64{1}); err == nil {
		t.Fatal("mismatched line accepted")
	}
	if len(s.lines) != 1 {
		t.Fatalf("Lines = %d, want 1", len(s.lines))
	}
	ys, ok := s.Line("popcorn")
	if !ok || ys[2] != 40 {
		t.Fatalf("Line lookup = %v,%v", ys, ok)
	}
	if _, ok := s.Line("missing"); ok {
		t.Fatal("missing line reported present")
	}
}

func TestSeriesStringRendersAllLines(t *testing.T) {
	s := NewSeries("F4", "threads", "ops/s", 1, 64)
	_ = s.AddLine("popcorn", []float64{100, 6400})
	_ = s.AddLine("smp", []float64{100, 3200})
	out := s.String()
	for _, want := range []string{"F4", "threads", "popcorn", "smp", "6400", "3200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatNum(t *testing.T) {
	if got := formatNum(64); got != "64" {
		t.Fatalf("formatNum(64) = %q", got)
	}
	if got := formatNum(0.5); got != "0.5" {
		t.Fatalf("formatNum(0.5) = %q", got)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("tbl", "name", "value")
	tb.AddRow("a", "1")
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"table","title":"tbl","headers":["name","value"],"rows":[["a","1"]]}`
	if string(b) != want {
		t.Fatalf("JSON = %s, want %s", b, want)
	}
}

func TestSeriesJSON(t *testing.T) {
	s := NewSeries("fig", "threads", "ops", 1, 2)
	_ = s.AddLine("a", []float64{10, 20})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"series","title":"fig","xlabel":"threads","ylabel":"ops","x":[1,2],"lines":[{"name":"a","ys":[10,20]}]}`
	if string(b) != want {
		t.Fatalf("JSON = %s, want %s", b, want)
	}
}
