package query

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneDescentSurface pins the package's shape from its source: the
// index is traversed from exactly one call site (descend), and no
// exported name is the …Ctx twin of another — the context-taking
// streaming functions are the API, the materialising helpers wrap them.
func TestOneDescentSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	searches := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "SearchHits", "SearchCtx", "Search":
						searches++
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
}
