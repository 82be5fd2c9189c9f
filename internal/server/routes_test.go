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
	for _, route := range routes() {
		if !strings.Contains(text, "`"+route+"`") {
			t.Errorf("route %q is not documented in PROTOCOL.md", route)
		}
	}
	// And the reverse: every endpoint heading in the doc is registered.
	registered := make(map[string]bool)
	for _, r := range routes() {
		registered[r] = true
	}
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
