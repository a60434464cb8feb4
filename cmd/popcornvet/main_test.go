package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tree writes a one-file fixture module: package kernel is sim-managed (the
// package name, not the path, decides), so wall-clock time in it is a
// simtime finding.
func tree(t *testing.T, body string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "kernel")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		filepath.Join(root, "go.mod"): "module fixture\n\ngo 1.23\n",
		filepath.Join(dir, "k.go"):    "package kernel\n\n" + body,
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExitStatus pins the command's contract with make and CI: 0 on a
// clean tree, 1 with the finding printed when there is one, 2 when it was
// asked for something it cannot do.
func TestExitStatus(t *testing.T) {
	clean := tree(t, "func tick(n int) int { return n + 1 }\n")
	dirty := tree(t, "import \"time\"\n\nfunc stamp() int64 { return time.Now().UnixNano() }\n")
	broken := tree(t, "func tick(n int) int { return n + missing }\n")
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		out, errIs string
	}{
		{"clean tree", []string{clean}, 0, "", ""},
		{"finding", []string{dirty}, 1, "[simtime]", "1 finding(s)"},
		{"finding as json", []string{"-json", dirty}, 1, `"analyzer": "simtime"`, "1 finding(s)"},
		{"finding outside -only", []string{"-only", "locksend", dirty}, 0, "", ""},
		{"go-style pattern", []string{dirty + "/..."}, 1, "[simtime]", ""},
		{"unknown analyzer", []string{"-only", "simtime,nosuch", clean}, 2, "", `unknown analyzer "nosuch"`},
		{"unknown flag", []string{"-nosuch", clean}, 2, "", "usage: popcornvet"},
		{"missing tree", []string{filepath.Join(clean, "absent")}, 2, "", "popcornvet:"},
		{"tree that does not compile", []string{broken}, 2, "", "undefined: missing"},
		{"allowlist", []string{"-allowlist", clean}, 0, "null", ""},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), tc.out) || tc.out == "" && tc.code == 0 && out.Len() != 0 {
			t.Errorf("%s: stdout %q, want it to contain %q", tc.name, out.String(), tc.out)
		}
		if !strings.Contains(errb.String(), tc.errIs) {
			t.Errorf("%s: stderr %q, want it to contain %q", tc.name, errb.String(), tc.errIs)
		}
	}
}
