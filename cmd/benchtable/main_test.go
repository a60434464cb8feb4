package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snap writes a snapshot fixture: each experiment is "ID:gen_ns:cell", where
// cell is the one table cell the fixture's data block holds.
func snap(t *testing.T, scale string, exps ...string) string {
	t.Helper()
	var items []string
	for _, e := range exps {
		f := strings.Split(e, ":")
		items = append(items, fmt.Sprintf(
			`{"id":%q,"title":"t","gen_ns":%s,"data":{"kind":"table","rows":[[%q]]}}`, f[0], f[1], f[2]))
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	doc := fmt.Sprintf(`{"scale":%q,"experiments":[%s]}`, scale, strings.Join(items, ","))
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSnapshots(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		code     int
		want     string
	}{
		{"same data, 3x slower gen_ns",
			snap(t, "full", "T1:1000000:5us", "F4:20000000:9ms"),
			snap(t, "full", "T1:3000000:5us", "F4:60000000:9ms"),
			0, "all 2 shared experiments have data byte-equal"},
		{"one changed cell",
			snap(t, "full", "T1:1000000:5us", "F4:20000000:9ms"),
			snap(t, "full", "T1:1000000:5us", "F4:20000000:8ms"),
			1, "F4           20ms ->         20ms  DATA CHANGED"},
		{"experiment dropped and added",
			snap(t, "full", "T1:1000000:5us", "T5:1000000:0.5x"),
			snap(t, "full", "T1:1000000:5us", "F9:1000000:1ms"),
			0, "T5   dropped from the new snapshot"},
		{"scale mismatch",
			snap(t, "quick", "T1:1000000:5us"),
			snap(t, "full", "T1:1000000:5us"),
			2, ""},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareSnapshots(&out, c.old, c.new); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, &out)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, &out)
		}
	}
}

// TestJSONRoundTrip runs one experiment through the command and reads the
// snapshot back; a snapshot must also compare clean against itself.
func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.json")
	if code := run([]string{"-exp", "T1", "-scale", "quick", "-json", path}, io.Discard); code != 0 {
		t.Fatalf("run exit %d", code)
	}
	s, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != "quick" || len(s.Experiments) != 1 {
		t.Fatalf("snapshot = scale %q, %d experiments; want quick, 1", s.Scale, len(s.Experiments))
	}
	e := s.Experiments[0]
	if e.ID != "T1" || e.GenNS <= 0 || !bytes.Contains(e.Data, []byte(`"kind": "series"`)) {
		t.Fatalf("experiment = %s gen_ns %d data %s", e.ID, e.GenNS, e.Data)
	}
	if code := run([]string{"-compare", path, path}, io.Discard); code != 0 {
		t.Fatalf("snapshot differs from itself: exit %d", code)
	}
}
