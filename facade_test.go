package fuiov_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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

// moduleSources reads every .go file of the module, bench/ included
// and dot-directories skipped: root maps the root package's non-test
// files to their source, others every other file (tests included)
// under its slash-separated path.
func moduleSources(t *testing.T) (root, others map[string]string) {
	t.Helper()
	root, others = map[string]string{}, map[string]string{}
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
	return root, others
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
		root, others := moduleSources(t)
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

// checkEngineConfig applies the engine-configuration rule to sources
// held in memory, keyed by slash-separated path. It reads fl.Config's
// and fl.Simulation's exported fields from internal/fl's non-test
// files. A Config field counts as used when it is a key in an
// fl.Config{…} or fuiov.SimConfig{…} literal in a non-test file
// outside internal/fl. It returns the Config fields, those without
// such a key, and Simulation's exported fields (there should be none).
func checkEngineConfig(files map[string]string) (fields, unused, simExported []string, err error) {
	const flDir = "internal/fl"
	fset := token.NewFileSet()
	used := map[string]bool{}
	for name, src := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		if path.Dir(name) == flDir {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						switch {
						case !id.IsExported():
						case ts.Name.Name == "Config":
							fields = append(fields, id.Name)
						case ts.Name.Name == "Simulation":
							simExported = append(simExported, id.Name)
						}
					}
				}
				return false
			})
			continue
		}
		// Local names of the two packages whose config type counts.
		literal := map[string]string{}
		for _, imp := range f.Imports {
			var local, typ string
			switch imp.Path.Value {
			case `"fuiov/internal/fl"`:
				local, typ = "fl", "Config"
			case `"fuiov"`:
				local, typ = "fuiov", "SimConfig"
			default:
				continue
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			literal[local] = typ
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || literal[x.Name] != sel.Sel.Name {
				return true
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok {
						used[k.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, name := range fields {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(fields)
	sort.Strings(unused)
	sort.Strings(simExported)
	return fields, unused, simExported, nil
}

// TestEngineConfigFieldsHaveCallers holds the round engine's
// configuration to what its callers set: every exported fl.Config
// field is a key in some non-test fl.Config or fuiov.SimConfig literal
// outside internal/fl, and fl.Simulation has no exported field. The
// table proves the rule on synthetic sources, the last subtest applies
// it to this module.
func TestEngineConfigFieldsHaveCallers(t *testing.T) {
	const engine = `package fl

type Config struct {
	Rate   float64
	Shards int
	seed   uint64
}

type Simulation struct {
	cfg Config
`
	cases := []struct {
		name     string
		simField string // appended to the engine's Simulation struct
		files    map[string]string
		wantUse  []string
		wantSim  []string
	}{
		{
			name: "keys of fl.Config and fuiov.SimConfig literals count",
			files: map[string]string{
				"cmd/demo/main.go":    "package main\nimport \"fuiov/internal/fl\"\nvar _ = &fl.Config{Rate: 1}\n",
				"examples/ex/main.go": "package main\nimport f \"fuiov\"\nvar _ = f.SimConfig{Shards: 2}\n",
			},
		},
		{
			name: "tests, internal/fl itself and assignments do not count",
			files: map[string]string{
				"cmd/demo/main_test.go": "package main\nimport \"fuiov/internal/fl\"\nvar _ = fl.Config{Rate: 1}\n",
				"internal/fl/sim.go":    "package fl\nvar _ = Config{Shards: 2}\n",
				"cmd/demo/main.go":      "package main\nimport \"fuiov/internal/fl\"\nfunc f(c fl.Config) { c.Rate = 1 }\n",
			},
			wantUse: []string{"Rate", "Shards"},
		},
		{
			name:     "an exported Simulation field is rejected",
			simField: "\tOnRound func()\n",
			files: map[string]string{
				"cmd/demo/main.go": "package main\nimport \"fuiov/internal/fl\"\nvar _ = fl.Config{Rate: 1, Shards: 2}\n",
			},
			wantSim: []string{"OnRound"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"internal/fl/config.go": engine + tc.simField + "}\n"}
			for name, src := range tc.files {
				files[name] = src
			}
			fields, unused, sim, err := checkEngineConfig(files)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"Rate", "Shards"}; !slices.Equal(fields, want) {
				t.Errorf("fields = %v, want %v", fields, want)
			}
			if !slices.Equal(unused, tc.wantUse) {
				t.Errorf("unused = %v, want %v", unused, tc.wantUse)
			}
			if !slices.Equal(sim, tc.wantSim) {
				t.Errorf("Simulation exported fields = %v, want %v", sim, tc.wantSim)
			}
		})
	}

	t.Run("this module", func(t *testing.T) {
		root, others := moduleSources(t)
		for name, src := range root {
			others[name] = src
		}
		fields, unused, sim, err := checkEngineConfig(others)
		if err != nil {
			t.Fatal(err)
		}
		if len(fields) == 0 {
			t.Fatal("found no fl.Config fields: has the struct moved?")
		}
		t.Logf("fl.Config has %d fields", len(fields))
		for _, name := range unused {
			t.Errorf("fl.Config.%s is set by no non-test fl.Config or fuiov.SimConfig literal outside internal/fl: delete it, or add the caller first", name)
		}
		for _, name := range sim {
			t.Errorf("fl.Simulation exports field %s: give it a Config field or a method", name)
		}
	})
}

// stdMethods are method names that a standard-library interface calls
// through its own code: a type may export one that no file of this
// module selects by name.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true,
	"Enabled":   true, "Handle": true, "WithAttrs": true, "WithGroup": true, "LogValue": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true, "Seek": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true,
}

// internalAllowlist names exported internal/ declarations that have no
// non-test caller on purpose, each with its reason. Keys are spelt as
// checkInternalNames reports them.
var internalAllowlist = map[string]string{}

// checkInternalNames applies the internal-names rule to sources held
// in memory, keyed by slash-separated path under the module root
// (bench/, whose module replaces fuiov with ../, included). It
// returns the exported declarations of non-test files under internal/
// that no non-test file calls, as "dir.Name" for a top-level name and
// "dir.Type.Method" for a method, sorted.
//
// A top-level name is called when some non-test file refers to it
// outside its own declaration: bare in its own package, or as
// pkg.Name where pkg imports its directory. A method is called when
// some non-test file selects a name equal to it (x.Name; the scan has
// no types), when a non-test interface declares a method of that
// name, or when it is in stdMethods.
func checkInternalNames(files map[string]string) ([]string, error) {
	type parsed struct {
		dir string
		f   *ast.File
	}
	fset := token.NewFileSet()
	var srcs []parsed
	pkgName := map[string]string{} // dir → package name
	for name, src := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir := path.Dir(name)
		srcs = append(srcs, parsed{dir, f})
		pkgName[dir] = f.Name.Name
	}

	decls := map[string]bool{}   // "dir.Name" of exported top-level names under internal/
	methods := map[string]bool{} // "dir.Type.Method"
	for _, p := range srcs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, d := range p.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[p.dir+"."+d.Name.Name] = true
				} else {
					methods[p.dir+"."+recvType(d.Recv)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[p.dir+"."+s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[p.dir+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}

	refs := map[string]bool{}     // "dir.Name" referred to
	selected := map[string]bool{} // selected or interface-declared names
	for _, p := range srcs {
		imports := map[string]string{} // local name → dir
		for _, imp := range p.f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			dir, ok := strings.CutPrefix(ip, "fuiov/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		// walk visits one top-level declaration; own holds the names
		// it declares, whose mentions inside it do not count.
		walk := func(node ast.Node, own map[string]bool) {
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							refs[dir+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field: // names of fields and parameters are not references
					ast.Inspect(n.Type, visit)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							selected[id.Name] = true
						}
					}
				case *ast.Ident:
					if !own[n.Name] {
						refs[p.dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(node, visit)
		}
		for _, d := range p.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl: // a method's receiver is its own declaration
				own := map[string]bool{}
				if d.Recv == nil {
					own[d.Name.Name] = true
				}
				walk(d.Type, own)
				if d.Body != nil {
					walk(d.Body, own)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					own := map[string]bool{}
					switch s := s.(type) {
					case *ast.TypeSpec:
						own[s.Name.Name] = true
						walk(s.Type, own)
						if s.TypeParams != nil {
							walk(s.TypeParams, own)
						}
					case *ast.ValueSpec:
						if blank(s.Names) {
							continue // var _ I = (*T)(nil) asserts, it does not call
						}
						for _, n := range s.Names {
							own[n.Name] = true
						}
						if s.Type != nil {
							walk(s.Type, own)
						}
						for _, v := range s.Values {
							walk(v, own)
						}
					}
				}
			}
		}
	}

	var uncalled []string
	for key := range decls {
		if !refs[key] {
			uncalled = append(uncalled, key)
		}
	}
	for key := range methods {
		name := key[strings.LastIndex(key, ".")+1:]
		if !selected[name] && !stdMethods[name] {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// blank reports whether every name of a value spec is _.
func blank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}

// recvType is the base type name of a method's receiver.
func recvType(recv *ast.FieldList) string {
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestInternalNamesHaveCallers holds internal/ to what production
// code calls: every exported top-level name and method under internal/
// has a non-test caller somewhere in the module, bench/ included, or a
// reasoned entry in internalAllowlist. A name that only tests call is
// a test helper: it lives in a _test.go file. The table proves the
// rule on synthetic sources, the last subtest applies it to this
// module.
func TestInternalNamesHaveCallers(t *testing.T) {
	const lib = `package x

type Store struct{ n int }

func New() *Store { return &Store{} }
func (s *Store) Len() int { return s.n }
func (s *Store) Grow() { s.n++ }
func (s *Store) Shrink() { s.n-- }

// Loop refers to itself only.
func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

const Limit = 4

// Leaf is named by its own receiver and an assertion only.
type Leaf int

func (l Leaf) Len() int { return int(l) }

var _ interface{ Len() int } = Leaf(0)
`
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "a caller in cmd/ keeps the names and methods it selects",
			files: map[string]string{
				"cmd/demo/main.go": "package main\nimport \"fuiov/internal/x\"\nfunc main() { x.New().Grow() }\n",
			},
			want: []string{"internal/x.Leaf", "internal/x.Limit", "internal/x.Loop", "internal/x.Store.Shrink"},
		},
		{
			name: "bench/, a renamed import and an interface count",
			files: map[string]string{
				"bench/b.go": "package bench\nimport y \"fuiov/internal/x\"\ntype shrinker interface{ Shrink() }\nvar n = y.Loop(y.Limit)\nvar s shrinker = y.New()\nvar l = y.Leaf(1)\nfunc grow() { s.(interface{ Grow() }).Grow() }\n",
			},
		},
		{
			name: "a test caller does not count, the package itself does",
			files: map[string]string{
				"internal/x/x_test.go": "package x\nvar _ = Loop(Limit)\n",
				"internal/x/use.go":    "package x\nvar ctor = New\n",
			},
			want: []string{"internal/x.Leaf", "internal/x.Limit", "internal/x.Loop", "internal/x.Store.Grow", "internal/x.Store.Shrink"},
		},
		{
			name: "a field of a method's name is no selector of it",
			files: map[string]string{
				"cmd/demo/main.go": "package main\nimport \"fuiov/internal/x\"\ntype t struct{ Grow, Shrink int }\nfunc main() { _ = x.Loop(x.Limit) }\n",
			},
			want: []string{"internal/x.Leaf", "internal/x.New", "internal/x.Store.Grow", "internal/x.Store.Shrink"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"internal/x/x.go": lib}
			for name, src := range tc.files {
				files[name] = src
			}
			got, err := checkInternalNames(files)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("uncalled = %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("this module", func(t *testing.T) {
		root, others := moduleSources(t)
		for name, src := range root {
			others[name] = src
		}
		uncalled, err := checkInternalNames(others)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range uncalled {
			if _, ok := internalAllowlist[key]; !ok {
				t.Errorf("%s has no non-test caller in the module: delete it, move it into a _test.go file, or add the caller first", key)
			}
		}
		for key, reason := range internalAllowlist {
			if reason == "" {
				t.Errorf("internalAllowlist lists %s without a reason", key)
			}
			if !slices.Contains(uncalled, key) {
				t.Errorf("internalAllowlist lists %s, which now has a caller: drop the entry", key)
			}
		}
	})
}

// optionStructs are the option structs held to TestConfigFieldsAreSet,
// as "dir.Type".
var optionStructs = []string{
	"internal/server.Config",
	"internal/agent.Config",
	"internal/fl.Config",
	"internal/fl.FaultPolicy",
	"internal/unlearn.Config",
	"internal/unlearn.QueueConfig",
	"internal/verify.Config",
}

// checkConfigFields applies the option-field rule to sources held in
// memory, keyed by slash-separated path under the module root. It
// reads the exported fields of the structs (as "dir.Type") from their
// own directories' non-test files, and returns them as
// "dir.Type.Field" together with those that nothing sets but the
// struct's own package's non-test files (its defaults), both sorted.
// Every other file counts, tests included: the own package's tests too.
//
// A field is set by a key in a composite literal of its struct (spelt
// pkg.Type, through a type alias such as the facade's, or elided as an
// element of a slice, array or map literal of the struct), or by a
// selector x.Field that is assigned, incremented or has its address
// taken. The scan has no types: a selector sets every tracked field of
// that name.
func checkConfigFields(files map[string]string, structs []string) (fields, unset []string, err error) {
	type parsed struct {
		dir  string
		test bool
		f    *ast.File
	}
	fset := token.NewFileSet()
	var srcs []parsed
	pkgName := map[string]string{} // dir → package name
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		dir, test := path.Dir(name), strings.HasSuffix(name, "_test.go")
		srcs = append(srcs, parsed{dir, test, f})
		if !test {
			pkgName[dir] = f.Name.Name
		}
	}

	tracked := map[string][]string{} // "dir.Type" → exported fields
	for _, s := range structs {
		tracked[s] = nil
	}
	alias := map[string]string{} // "dir.Alias" → "dir.Type"
	// importsOf maps a file's local import names to module directories.
	importsOf := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, imp := range f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "fuiov")
			if !ok || (dir != "" && dir[0] != '/') {
				continue
			}
			dir = strings.TrimPrefix(dir, "/")
			if dir == "" {
				dir = "."
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			m[local] = dir
		}
		return m
	}
	// resolve names the tracked struct a type expression spells, or "".
	resolve := func(dir string, imports map[string]string, t ast.Expr) string {
		var key string
		switch t := t.(type) {
		case *ast.Ident:
			key = dir + "." + t.Name
		case *ast.SelectorExpr:
			x, ok := t.X.(*ast.Ident)
			if !ok || imports[x.Name] == "" {
				return ""
			}
			key = imports[x.Name] + "." + t.Sel.Name
		default:
			return ""
		}
		if to, ok := alias[key]; ok {
			key = to
		}
		if _, ok := tracked[key]; !ok {
			return ""
		}
		return key
	}
	for _, p := range srcs {
		imports := importsOf(p.f)
		for _, d := range p.f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, s := range g.Specs {
				ts := s.(*ast.TypeSpec)
				if ts.Assign.IsValid() {
					if to := resolve(p.dir, imports, ts.Type); to != "" {
						alias[p.dir+"."+ts.Name.Name] = to
					}
					continue
				}
				key := p.dir + "." + ts.Name.Name
				st, ok := ts.Type.(*ast.StructType)
				if _, want := tracked[key]; !want || !ok || p.test {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							tracked[key] = append(tracked[key], id.Name)
						}
					}
				}
			}
		}
	}

	set := map[string]bool{} // "dir.Type.Field"
	for _, p := range srcs {
		imports := importsOf(p.f)
		// own reports whether key's fields are the file's own defaults.
		own := func(key string) bool { return !p.test && strings.HasPrefix(key, p.dir+".") }
		setByName := func(field string) {
			for key, fs := range tracked {
				if !own(key) && slices.Contains(fs, field) {
					set[key+"."+field] = true
				}
			}
		}
		// keys records the keys of lit, a literal of the struct key.
		keys := func(key string, lit *ast.CompositeLit) {
			if own(key) {
				return
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[key+"."+id.Name] = true
					}
				}
			}
		}
		ast.Inspect(p.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if key := resolve(p.dir, imports, n.Type); key != "" {
					keys(key, n)
					return true
				}
				var elt ast.Expr
				switch t := n.Type.(type) {
				case *ast.ArrayType:
					elt = t.Elt
				case *ast.MapType:
					elt = t.Value
				}
				if star, ok := elt.(*ast.StarExpr); ok {
					elt = star.X
				}
				key := resolve(p.dir, imports, elt)
				if key == "" {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil {
						keys(key, lit)
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						setByName(sel.Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					setByName(sel.Sel.Name)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					setByName(sel.Sel.Name)
				}
			}
			return true
		})
	}

	for key, fs := range tracked {
		for _, name := range fs {
			fields = append(fields, key+"."+name)
			if !set[key+"."+name] {
				unset = append(unset, key+"."+name)
			}
		}
	}
	sort.Strings(fields)
	sort.Strings(unset)
	return fields, unset, nil
}

// TestConfigFieldsAreSet holds the option structs to what their
// callers set: every exported field of optionStructs is set somewhere
// outside its own package, by a literal key, an assignment or &x.F, in
// any file of the module (tests, bench/, cmd/ and examples/ included).
// A field only the defaults fill is a constant: write it as one. The
// table proves the rule on synthetic sources, the last subtest applies
// it to this module.
func TestConfigFieldsAreSet(t *testing.T) {
	const lib = `package x

type Config struct {
	Rate   float64
	Shards int
	Depth  int
	seed   uint64
}

var _ = Config{Depth: 1}
`
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "keyed literals, assignments and &x.F outside the package count",
			files: map[string]string{
				"cmd/demo/main.go":         "package main\nimport \"fuiov/internal/x\"\nvar c = &x.Config{Rate: 1}\nfunc init() { c.Shards = 2 }\n",
				"examples/ex/main_test.go": "package main\nimport (\"flag\"; y \"fuiov/internal/x\")\nvar c y.Config\nfunc init() { flag.IntVar(&c.Depth, \"d\", 0, \"\") }\n",
			},
		},
		{
			name: "the own package's non-test files and reads do not count",
			files: map[string]string{
				"internal/x/use.go": "package x\nvar _ = Config{Rate: 1}\nfunc f(c *Config) { c.Shards++ }\n",
				"cmd/demo/main.go":  "package main\nimport \"fuiov/internal/x\"\nvar c x.Config\nvar _ = c.Depth + c.Shards\n",
			},
			want: []string{"internal/x.Config.Depth", "internal/x.Config.Rate", "internal/x.Config.Shards"},
		},
		{
			name: "the own package's tests count",
			files: map[string]string{
				"internal/x/x_test.go": "package x\nvar _ = Config{Rate: 1}\nfunc f(c *Config) { c.Shards++; c.Depth = 2 }\n",
			},
		},
		{
			name: "facade aliases and elided element literals count",
			files: map[string]string{
				"fuiov.go":         "package fuiov\nimport \"fuiov/internal/x\"\ntype Options = x.Config\n",
				"examples/ex/a.go": "package main\nimport \"fuiov\"\nvar _ = fuiov.Options{Rate: 1}\n",
				"bench/b.go":       "package bench\nimport \"fuiov/internal/x\"\nvar _ = []*x.Config{{Shards: 1}}\nvar _ = map[string]x.Config{\"a\": {Depth: 1}}\n",
			},
		},
		{
			name: "a literal of another struct does not count",
			files: map[string]string{
				"cmd/demo/main.go": "package main\nimport \"fuiov/internal/x\"\ntype Config struct{ Rate, Shards, Depth int }\nvar _ = Config{Rate: 1}\nvar _ = x.Other{Shards: 1}\n",
			},
			want: []string{"internal/x.Config.Depth", "internal/x.Config.Rate", "internal/x.Config.Shards"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"internal/x/x.go": lib}
			for name, src := range tc.files {
				files[name] = src
			}
			fields, unset, err := checkConfigFields(files, []string{"internal/x.Config"})
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"internal/x.Config.Depth", "internal/x.Config.Rate", "internal/x.Config.Shards"}; !slices.Equal(fields, want) {
				t.Errorf("fields = %v, want %v", fields, want)
			}
			if !slices.Equal(unset, tc.want) {
				t.Errorf("unset = %v, want %v", unset, tc.want)
			}
		})
	}

	t.Run("this module", func(t *testing.T) {
		root, others := moduleSources(t)
		for name, src := range root {
			others[name] = src
		}
		fields, unset, err := checkConfigFields(others, optionStructs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range optionStructs {
			if !slices.ContainsFunc(fields, func(f string) bool { return strings.HasPrefix(f, s+".") }) {
				t.Errorf("found no fields of %s: has the struct moved?", s)
			}
		}
		t.Logf("the %d option structs have %d settable fields", len(optionStructs), len(fields))
		for _, key := range unset {
			t.Errorf("%s is set nowhere but in its own package's defaults: make it a constant, or add the caller first", key)
		}
	})
}
