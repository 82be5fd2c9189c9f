package server

import (
	"os"
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
