package abcl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The deprecated construction and observation APIs were deleted in favour of
// NewSystem(With...) and the grouped Report(). These vet tests parse the
// source tree so a reintroduction fails loudly instead of surviving as
// silent legacy usage.

// bannedIdents are identifiers that belonged to the removed compatibility
// surface: the Config struct, its constructors, and the accessor zoo on
// System whose readings all moved into Report().
var bannedIdents = map[string]string{
	"NewSystemConfig":     "build the System with abcl.NewSystem(With...)",
	"MustNewSystemConfig": "build the System with abcl.NewSystem(With...)",
}

// bannedSystemMethods are method names that must never reappear on System
// (each maps to its Report() replacement).
var bannedSystemMethods = map[string]string{
	"Reliable":          "Report().Reliable.Enabled",
	"Elapsed":           "Report().Sched.Elapsed",
	"Utilization":       "Report().Sched.Utilization",
	"Stats":             "Report().Sched.Counters",
	"TotalInstructions": "Report().Sched.TotalInstructions",
	"Packets":           "Report().Wire.Packets",
	"LogicalMsgs":       "Report().Wire.LogicalMsgs",
	"BatchWindow":       "Report().Wire.BatchWindow / BatchMaxBytes",
	"AckDelay":          "Report().Reliable.AckDelay",
	"LocationCache":     "Report().Wire.LocationCache",
	"CheckpointRounds":  "Report().Ckpt.Rounds",
}

func walkGoFiles(t *testing.T, roots []string, includeTests bool, visit func(path string, f *ast.File, fset *token.FileSet)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		if _, err := os.Stat(root); err != nil {
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") || (!includeTests && strings.HasSuffix(path, "_test.go")) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			visit(path, f, fset)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}

// TestNoLegacyConstruction asserts that no internal package, command or
// example references the deleted legacy constructors.
func TestNoLegacyConstruction(t *testing.T) {
	walkGoFiles(t, []string{"internal", "cmd", "examples"}, false, func(path string, f *ast.File, fset *token.FileSet) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok {
				if fix, banned := bannedIdents[id.Name]; banned {
					t.Errorf("%s: uses deleted legacy constructor %s; %s",
						fset.Position(id.Pos()), id.Name, fix)
				}
			}
			return true
		})
	})
}

// TestNoLegacyRedeclaration asserts that the root package does not
// re-declare the deleted compatibility surface: the Config type, its
// constructors, or any of the removed accessor methods on System.
func TestNoLegacyRedeclaration(t *testing.T) {
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range rootFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if _, banned := bannedIdents[name]; banned {
					t.Errorf("%s: re-declares deleted constructor %s", fset.Position(d.Pos()), name)
				}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if recvNamed(d.Recv.List[0].Type) == "System" {
						if repl, banned := bannedSystemMethods[name]; banned {
							t.Errorf("%s: re-declares deleted accessor System.%s; readings live in %s",
								fset.Position(d.Pos()), name, repl)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Config" {
						t.Errorf("%s: re-declares the deleted Config type; use functional options", fset.Position(ts.Pos()))
					}
				}
			}
		}
	}
}

func recvNamed(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvNamed(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
