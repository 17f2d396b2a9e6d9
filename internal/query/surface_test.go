package query

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneDescentSurface pins the package's shape from its source: the
// index is traversed from exactly one call site (descend), and no
// exported name is the …Ctx twin of another — the context-taking
// streaming functions are the API, the materialising helpers wrap them.
// Step 4 is one function as well: the refinement counters move in step4
// (false hits also in the hull filter in front of it), the join engine
// is entered from one call site, and the query classes of query.go and
// batch.go refine where they stand — no goroutine, no lock, no atomic.
func TestOneDescentSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	searches, joins := 0, 0
	counted := map[string][]string{} // refinement counter → functions that increment it
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		serial := name == "query.go" || name == "batch.go"
		for _, imp := range f.Imports {
			if serial && strings.HasPrefix(imp.Path.Value, `"sync`) {
				t.Errorf("%s imports %s: step 4 runs where its caller stands", name, imp.Path.Value)
			}
		}
		fn := ""
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = n.Name.Name
			case *ast.GoStmt:
				if serial {
					t.Errorf("%s: %s starts a goroutine", name, fn)
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "DirectAccepts", "RefinementTests", "FalseHits":
						counted[sel.Sel.Name] = append(counted[sel.Sel.Name], fn)
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "SearchHits", "SearchCtx", "Search":
						searches++
					case "JoinCtx":
						joins++
					}
				}
			}
			return true
		})
		var names []string
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name.Name)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						names = append(names, sp.Name.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
		for _, id := range names {
			if ast.IsExported(id) && strings.HasSuffix(id, "Ctx") {
				t.Errorf("%s: exported %s: take the context in the one entry point instead", name, id)
			}
		}
	}
	if searches != 1 {
		t.Errorf("%d index traversal call sites in package query, want exactly 1 (descend's SearchHits)", searches)
	}
	if joins != 1 {
		t.Errorf("%d rtree.JoinCtx call sites in package query, want exactly 1 (JoinStream's)", joins)
	}
	for counter, want := range map[string][]string{
		"DirectAccepts":   {"step4"},
		"RefinementTests": {"step4"},
		"FalseHits":       {"step4", "hullFilter"},
	} {
		if got := counted[counter]; !slices.Equal(got, want) {
			t.Errorf("Stats.%s is incremented in %v, want %v", counter, got, want)
		}
	}
}
