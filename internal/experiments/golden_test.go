package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// timedTables names the tables whose cells measure wall-clock time, and the
// header of the first such column: the golden keeps each line of the table
// only up to that column.
var timedTables = []struct{ title, from string }{
	{"Table 5:", "Runtime"},
	{"Table 9/11:", "KP R"},
	{"Figure 3a:", "Random"},
}

// mask cuts the timed columns out of RunAll's output and trims the padding
// at the end of each line.
func mask(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		for _, tt := range timedTables {
			if !strings.HasPrefix(line, tt.title) || i+2 >= len(lines) {
				continue
			}
			cut := strings.Index(lines[i+2], tt.from) // the header line
			for j := i + 2; j < len(lines) && lines[j] != ""; j++ {
				lines[j] = lines[j][:min(cut, len(lines[j]))] + "*"
			}
		}
	}
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " ")
	}
	return strings.Join(lines, "\n")
}

// TestQuickTablesGolden pins every cell of every quick-scale table and figure
// that does not measure time. Regenerate with
//
//	go test -run TestQuickTablesGolden ./internal/experiments/ -update
//
// only when a change is meant to move a number.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll at quick scale takes seconds; skipped in -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is recorded on amd64; other architectures may fuse multiply-adds and move the last digit")
	}
	var buf bytes.Buffer
	if err := NewRunner(ScaleQuick, &buf).RunAll(); err != nil {
		t.Fatal(err)
	}
	got := mask(buf.String())
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

// Experiments share a Runner's caches; running one must not change what
// another prints.
func TestExperimentsDoNotDependOnRunOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick suites; skipped in -short")
	}
	run := func(t *testing.T, r *Runner, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if err := r.Run(id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
	t.Run("fig4 then table8", func(t *testing.T) {
		run(t, NewRunner(ScaleQuick, io.Discard), "fig4", "table8")
	})
	t.Run("ext1 then table6", func(t *testing.T) {
		var alone bytes.Buffer
		run(t, NewRunner(ScaleQuick, &alone), "table6")
		var after bytes.Buffer
		r := NewRunner(ScaleQuick, io.Discard)
		run(t, r, "ext1")
		r.W = &after
		run(t, r, "table6")
		if after.String() != alone.String() {
			t.Fatalf("table6 after ext1:\n%s\ntable6 alone:\n%s", after.String(), alone.String())
		}
	})
}
