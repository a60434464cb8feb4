package stats

import (
	"encoding/json"
	"time"
)

// jsonTable is Table's wire form: a tagged object so consumers can
// distinguish tables from series without guessing at fields.
type jsonTable struct {
	Kind    string     `json:"kind"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON renders the table as {kind:"table", title, headers, rows}.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(jsonTable{Kind: "table", Title: t.Title, Headers: t.Headers, Rows: rows})
}

type jsonSeriesLine struct {
	Name string    `json:"name"`
	Ys   []float64 `json:"ys"`
}

type jsonSeries struct {
	Kind   string           `json:"kind"`
	Title  string           `json:"title"`
	XLabel string           `json:"xlabel"`
	YLabel string           `json:"ylabel"`
	X      []float64        `json:"x"`
	Lines  []jsonSeriesLine `json:"lines"`
}

// MarshalJSON renders the series as {kind:"series", title, axes, x, lines}.
func (s *Series) MarshalJSON() ([]byte, error) {
	lines := make([]jsonSeriesLine, 0, len(s.lines))
	for _, l := range s.lines {
		lines = append(lines, jsonSeriesLine{Name: l.name, Ys: l.ys})
	}
	return json.Marshal(jsonSeries{
		Kind: "series", Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel,
		X: s.X, Lines: lines,
	})
}

// jsonHistogram is a Histogram's wire form, durations in nanoseconds.
type jsonHistogram struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum"`
	Min   time.Duration `json:"min"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// MarshalJSON renders the registry as {counters: {name: n}, histograms:
// {name: {count, sum, min, p50, p99, max}}}. Names come out sorted,
// so equal registries render byte-identically.
func (r *Registry) MarshalJSON() ([]byte, error) {
	counters := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.n
	}
	histograms := make(map[string]jsonHistogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = jsonHistogram{h.count, h.sum, h.min, h.Quantile(0.5), h.Quantile(0.99), h.max}
	}
	return json.Marshal(struct {
		Counters   map[string]uint64        `json:"counters"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}{counters, histograms})
}
