package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRoutesDocumented diffs the registered endpoints against
// PROTOCOL.md, so the spec cannot drift from the implementation.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	registered := make(map[string]bool)
	for _, rt := range routeTable {
		if !strings.Contains(text, "`"+rt.pattern+"`") {
			t.Errorf("route %q is not documented in PROTOCOL.md", rt.pattern)
		}
		registered[rt.pattern] = true
	}
	// And the reverse: every endpoint heading in the doc is registered.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "### `") {
			continue
		}
		ep := strings.TrimSuffix(strings.TrimPrefix(line, "### `"), "`")
		if !registered[ep] {
			t.Errorf("PROTOCOL.md documents %q, which is not a registered route", ep)
		}
	}
}

// TestErrorCodesDocumented diffs the error codes the coordinator emits
// against PROTOCOL.md's error table, both ways: every code in the
// table is a string literal in server.go or wire.go, and every literal
// code that writeErr or mapError emits is a table row.
func TestErrorCodesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	_, table, _ := strings.Cut(string(doc), "\n## Error mapping\n")
	table, _, _ = strings.Cut(table, "\n## ")
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[2]), "`") {
			continue
		}
		documented[strings.Trim(strings.TrimSpace(cells[2]), "`")] = true
	}
	if len(documented) == 0 {
		t.Fatal("PROTOCOL.md has no error table under \"## Error mapping\"")
	}

	fset := token.NewFileSet()
	var source strings.Builder
	emitted := make(map[string]bool)
	for _, name := range []string{"server.go", "wire.go"} {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		source.Write(src)
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// c.writeErr(w, status, "code", err, round)
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "writeErr" && len(n.Args) > 2 {
					addLiteral(t, emitted, n.Args[2])
				}
			case *ast.FuncDecl:
				if n.Name.Name != "mapError" {
					return true
				}
				// return status, "code"
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if ret, ok := m.(*ast.ReturnStmt); ok && len(ret.Results) == 2 {
						addLiteral(t, emitted, ret.Results[1])
					}
					return true
				})
				return false
			}
			return true
		})
	}
	if len(emitted) == 0 {
		t.Fatal("found no writeErr or mapError code literal")
	}
	for code := range documented {
		if !strings.Contains(source.String(), strconv.Quote(code)) {
			t.Errorf("PROTOCOL.md documents error code %q, which server.go and wire.go never use", code)
		}
	}
	for code := range emitted {
		if !documented[code] {
			t.Errorf("error code %q is not in PROTOCOL.md's error table", code)
		}
	}
}

// addLiteral records e's value when it is a string literal.
func addLiteral(t *testing.T, set map[string]bool, e ast.Expr) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		t.Fatal(err)
	}
	set[s] = true
}
