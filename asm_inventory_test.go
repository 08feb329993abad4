package kgeval

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	textSymbol = regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	backquoted = regexp.MustCompile("`([^`]+)`")
)

// TestAssemblyInventory holds README's assembly inventory to the tree: every
// .s file under internal/ has a row, and the row lists exactly the file's
// TEXT symbols, so a kernel cannot land without naming the journey and the
// rung that keep it, and a deleted one cannot stay in the table.
func TestAssemblyInventory(t *testing.T) {
	have := map[string][]string{} // .s file -> its TEXT symbols
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".s") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range textSymbol.FindAllStringSubmatch(string(src), -1) {
			have[filepath.ToSlash(path)] = append(have[filepath.ToSlash(path)], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Assembly inventory\n")
	if !ok {
		t.Fatal("README.md has no assembly inventory section")
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	listed := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		file := backquoted.FindStringSubmatch(cells[1])
		if file == nil || !strings.HasSuffix(file[1], ".s") {
			continue
		}
		if _, dup := listed[file[1]]; dup {
			t.Errorf("README lists %s twice", file[1])
		}
		listed[file[1]] = []string{}
		for _, m := range backquoted.FindAllStringSubmatch(cells[2], -1) {
			listed[file[1]] = append(listed[file[1]], m[1])
		}
	}
	for file, syms := range have {
		row, ok := listed[file]
		if !ok {
			t.Errorf("README's assembly inventory has no row for %s (%s)", file, strings.Join(syms, ", "))
			continue
		}
		for _, s := range syms {
			if !slices.Contains(row, s) {
				t.Errorf("README's assembly inventory does not list %s of %s", s, file)
			}
		}
		for _, s := range row {
			if !slices.Contains(syms, s) {
				t.Errorf("README's assembly inventory lists %s under %s, which defines no such symbol", s, file)
			}
		}
	}
	for file := range listed {
		if _, ok := have[file]; !ok {
			t.Errorf("README's assembly inventory lists %s, which holds no assembly function", file)
		}
	}
}
