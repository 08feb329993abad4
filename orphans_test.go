package kgeval

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowed: exports that may go without a non-test reference, and why.
var orphanAllowed = map[string]string{
	// Methods that exist to satisfy an interface of the standard library.
	"Error": "error", "String": "fmt.Stringer", "ServeHTTP": "http.Handler",
	"Write": "http.ResponseWriter", "WriteHeader": "http.ResponseWriter", "Flush": "http.Flusher",
	"Len": "sort.Interface", "Less": "sort.Interface", "Swap": "sort.Interface",
	"Int63": "math/rand.Source",
}

// TestNoOrphanExports holds the tree to "what ships is what runs": every
// exported top-level func, method and type declared in a non-test file under
// internal/ must be named by some non-test file other than at a declaration
// of that name. Every package is internal, so those files (cmd/, bench/,
// examples/, internal/) are all the callers there can be; an export none of
// them reaches is deleted, or moved into the _test.go that uses it. Matching
// is by name. A declaration is a func, method or type's own name, a receiver,
// or a method listed in an interface (implementations do not keep it alive).
func TestNoOrphanExports(t *testing.T) {
	fset := token.NewFileSet()
	declared, referenced := map[string]string{}, map[string]bool{} // exported name under internal/ -> where
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			decls[id] = true
			if id.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				declared[id.Name] = fset.Position(id.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declare(n.Name)
				if n.Recv != nil { // a receiver names its type to declare on it, not to use it
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							decls[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				declare(n.Name)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						declare(id)
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				referenced[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for name, pos := range declared {
		if !referenced[name] && orphanAllowed[name] == "" {
			orphans = append(orphans, pos+": "+name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but no non-test file refers to it", o)
	}
}
