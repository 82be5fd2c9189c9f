package fuiov_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var (
	readmeGoBlock = regexp.MustCompile("(?s)```go\n(.*?)```")
	facadeRef     = regexp.MustCompile(`\bfuiov\.([A-Z]\w*)`)
)

// checkFacade applies the facade rule (fuiov.go's header comment) to
// sources held in memory. root maps file name → source for the root
// package's non-test files, others does the same for every other .go
// file of the module. An exported top-level root name must be
// referenced as fuiov.<Name> from a non-test file in others, or be a
// type named in the signature (or struct fields) of a name that is.
// It returns every exported name, those that meet neither condition,
// and the fuiov.<Name> tokens in readme's ```go blocks that the
// facade does not export.
func checkFacade(root, others map[string]string, readme string) (exported, uncalled, missing []string, err error) {
	fset := token.NewFileSet()
	// Exported name → the node spelling its types: a func's signature,
	// a type's definition, a var's declared type (nil when it has none).
	decls := map[string]ast.Node{}
	isType := map[string]bool{}
	for name, src := range root {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = d.Type
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = s.Type
							isType[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n.Name] = s.Type
							}
						}
					}
				}
			}
		}
	}

	called := map[string]bool{}
	for name, src := range others {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"fuiov"` {
				local = "fuiov"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	kept := map[string]bool{}
	var keep func(name string)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr: // pkg.Name: nothing of the root package inside
			return false
		case *ast.Field: // the names of parameters and fields are not types
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			if isType[n.Name] {
				keep(n.Name)
			}
		}
		return true
	}
	keep = func(name string) {
		node, ok := decls[name]
		if !ok || kept[name] {
			return
		}
		kept[name] = true
		if node != nil {
			ast.Inspect(node, visit)
		}
	}
	for name := range called {
		keep(name)
	}

	for name := range decls {
		exported = append(exported, name)
		if !kept[name] {
			uncalled = append(uncalled, name)
		}
	}
	for _, block := range readmeGoBlock.FindAllStringSubmatch(readme, -1) {
		for _, ref := range facadeRef.FindAllStringSubmatch(block[1], -1) {
			if _, ok := decls[ref[1]]; !ok && !slices.Contains(missing, ref[1]) {
				missing = append(missing, ref[1])
			}
		}
	}
	sort.Strings(exported)
	sort.Strings(uncalled)
	sort.Strings(missing)
	return exported, uncalled, missing, nil
}

// TestFacadeNamesHaveCallers holds the facade to its called surface
// (ROADMAP item 4): the table proves the rule on synthetic sources,
// the last subtest applies it to this module and to README.md.
func TestFacadeNamesHaveCallers(t *testing.T) {
	const facade = `package fuiov

import "fuiov/internal/x"

type Store = x.Store
type Option = x.Option
type Report struct{ Inner Detail }
type Detail = x.Detail

var ErrGone = x.ErrGone

func NewStore(opts ...Option) (*Store, error) { return x.New(opts...) }
func Inspect(s *Store) Report { return Report{} }
`
	const caller = `package main

import "fuiov"

func main() {
	s, err := fuiov.NewStore()
	if err == fuiov.ErrGone {
		_ = fuiov.Inspect(s)
	}
}
`
	cases := []struct {
		name         string
		extraFacade  string
		callerFile   string
		readme       string
		wantUncalled []string
		wantMissing  []string
	}{
		{
			// Store, Option, Report and Detail are never spelled by the
			// caller: signatures and struct fields keep them.
			name:       "signature-only types are accepted",
			callerFile: "examples/demo/main.go",
			readme:     "```go\ns, _ := fuiov.NewStore()\n```\n",
		},
		{
			name:         "uncalled alias is rejected",
			extraFacade:  "type Orphan = x.Orphan\n",
			callerFile:   "examples/demo/main.go",
			wantUncalled: []string{"Orphan"},
		},
		{
			name:         "test-only caller does not count",
			callerFile:   "internal/demo/demo_test.go",
			wantUncalled: []string{"Detail", "ErrGone", "Inspect", "NewStore", "Option", "Report", "Store"},
		},
		{
			name:        "README go block naming an unexported facade name is rejected",
			callerFile:  "examples/demo/main.go",
			readme:      "prose may say fuiov.Prose\n```go\nfuiov.Missing(fuiov.NewStore())\n```\n```sh\nfuiov.Shell\n```\n",
			wantMissing: []string{"Missing"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, uncalled, missing, err := checkFacade(
				map[string]string{"fuiov.go": facade + tc.extraFacade},
				map[string]string{tc.callerFile: caller},
				tc.readme)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(uncalled, tc.wantUncalled) {
				t.Errorf("uncalled = %v, want %v", uncalled, tc.wantUncalled)
			}
			if !slices.Equal(missing, tc.wantMissing) {
				t.Errorf("missing = %v, want %v", missing, tc.wantMissing)
			}
		})
	}

	t.Run("this module", func(t *testing.T) {
		root, others := map[string]string{}, map[string]string{}
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != "." && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			switch {
			case filepath.Dir(path) != ".":
				others[filepath.ToSlash(path)] = string(src)
			case !strings.HasSuffix(path, "_test.go"):
				root[path] = string(src)
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
		exported, uncalled, missing, err := checkFacade(root, others, string(readme))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("the facade exports %d names", len(exported))
		for _, name := range uncalled {
			t.Errorf("fuiov.%s has no non-test caller outside the root package and is in no called name's signature: delete it, or add the caller first", name)
		}
		for _, name := range missing {
			t.Errorf("README.md uses fuiov.%s in a go block, but the facade does not export it", name)
		}
	})
}
