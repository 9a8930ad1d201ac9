package config

import (
	"strings"
	"testing"
)

// parseStructureDoc holds every shape the parser accepts.
var parseStructureDoc = strings.Join([]string{
	"# header comment",
	"name: demo  # trailing comment",
	"seed: 42",
	"testbed:",
	"  kind: uniform",
	"  daemons: 10",
	"apps:",
	"  - app: chord",
	"    nodes: 8",
	"  - app: cyclon",
	"caps: [net, fs]",
	"quoted: \"a: b # not a comment\"",
	"single: 'it''s'",
	"",
}, "\n")

// TestParseStructure pins the parser's shape handling: mappings, block
// and flow lists, nesting, comments, quoting, and the positions nodes
// carry.
func TestParseStructure(t *testing.T) {
	t.Parallel()
	root, perr := parseDoc([]byte(parseStructureDoc))
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	if root.kind != mapNode {
		t.Fatalf("root is %v, want mapping", root.kind)
	}
	if got := root.get("name"); got == nil || got.scalar != "demo" || got.quoted {
		t.Errorf("name = %+v, want plain scalar demo", got)
	}
	if got := root.get("name"); got.line != 2 || got.col != 7 {
		t.Errorf("name position = %d:%d, want 2:7", got.line, got.col)
	}
	tb := root.get("testbed")
	if tb == nil || tb.kind != mapNode || len(tb.keys) != 2 {
		t.Fatalf("testbed = %+v, want 2-entry mapping", tb)
	}
	if got := tb.get("daemons"); got.scalar != "10" || got.line != 6 {
		t.Errorf("testbed.daemons = %+v, want 10 at line 6", got)
	}
	apps := root.get("apps")
	if apps == nil || apps.kind != listNode || len(apps.items) != 2 {
		t.Fatalf("apps = %+v, want 2-item list", apps)
	}
	first := apps.items[0]
	if first.kind != mapNode || first.get("app").scalar != "chord" || first.get("nodes").scalar != "8" {
		t.Errorf("apps[0] = %+v, want {app: chord, nodes: 8}", first)
	}
	if second := apps.items[1]; second.get("app").scalar != "cyclon" {
		t.Errorf("apps[1] = %+v, want {app: cyclon}", second)
	}
	caps := root.get("caps")
	if caps == nil || caps.kind != listNode || len(caps.items) != 2 ||
		caps.items[0].scalar != "net" || caps.items[1].scalar != "fs" {
		t.Errorf("caps = %+v, want flow list [net, fs]", caps)
	}
	if got := root.get("quoted"); got == nil || !got.quoted || got.scalar != "a: b # not a comment" {
		t.Errorf("quoted = %+v, want quoted scalar with comment-ish content", got)
	}
	if got := root.get("single"); got == nil || !got.quoted || got.scalar != "it's" {
		t.Errorf("single = %+v, want it's", got)
	}
}

// TestParseErrors pins every parser-level failure: the typed code and
// the 1-based position each error is anchored at.
func TestParseErrors(t *testing.T) {
	t.Parallel()
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, perr := parseDoc([]byte(tc.doc))
			if perr == nil {
				t.Fatalf("parsed without error")
			}
			if perr.Code != tc.code {
				t.Errorf("code = %s, want %s (%v)", perr.Code, tc.code, perr)
			}
			if perr.Line != tc.line || perr.Col != tc.col {
				t.Errorf("position = %d:%d, want %d:%d (%v)", perr.Line, perr.Col, tc.line, tc.col, perr)
			}
		})
	}
}

var parseErrorCases = []struct {
	name      string
	doc       string
	code      ErrorCode
	line, col int
}{
	{"empty", "", ErrSyntax, 1, 1},
	{"comments only", "# nothing\n\n# here\n", ErrSyntax, 1, 1},
	{"tab indent", "a: 1\n\tb: 2", ErrSyntax, 2, 1},
	{"top-level list", "- item", ErrSyntax, 1, 1},
	{"indented start", "  a: 1", ErrSyntax, 1, 3},
	{"duplicate key", "a: 1\na: 2", ErrSyntax, 2, 1},
	{"missing colon", "a: 1\njust words", ErrSyntax, 2, 1},
	{"invalid key", "a b: 1", ErrSyntax, 1, 1},
	{"key without value", "a:", ErrSyntax, 1, 1},
	{"empty value", "a: \"\"x", ErrSyntax, 1, 4},
	{"unexpected indent", "a: 1\n  b: 2", ErrSyntax, 2, 3},
	{"list then deeper", "a:\n  - x\n    - y", ErrSyntax, 3, 5},
	{"empty list item", "a:\n  - ", ErrSyntax, 2, 3},
	{"unclosed double quote", "a: \"abc", ErrSyntax, 1, 4},
	{"unclosed single quote", "a: 'abc", ErrSyntax, 1, 4},
	{"trailing after quote", "a: \"x\" y", ErrSyntax, 1, 4},
	{"unclosed flow list", "a: [x, y", ErrSyntax, 1, 4},
	{"empty flow element", "a: [x, , y]", ErrSyntax, 1, 4},
	{"trailing after flow list", "a: [x] y", ErrSyntax, 1, 4},
	{"multi-doc", "---\na: 1", ErrUnsupported, 1, 1},
	{"directive", "%YAML 1.2\na: 1", ErrUnsupported, 1, 1},
	{"flow mapping", "a: {b: 1}", ErrUnsupported, 1, 4},
	{"anchor", "a: &x 1", ErrUnsupported, 1, 4},
	{"alias", "a: *x", ErrUnsupported, 1, 4},
	{"tag", "a: !!str x", ErrUnsupported, 1, 4},
	{"block scalar", "a: |\n  text", ErrUnsupported, 1, 4},
	{"complex key", "a: ? x", ErrUnsupported, 1, 4},
	{"flow list holding non-scalar", "a: [x, {y}]", ErrUnsupported, 1, 8},
}

const crlfDoc = "a: 1\r\nb: two\r\n"

// TestParseCRLF accepts Windows line endings transparently.
func TestParseCRLF(t *testing.T) {
	t.Parallel()
	root, perr := parseDoc([]byte(crlfDoc))
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	if root.get("a").scalar != "1" || root.get("b").scalar != "two" {
		t.Errorf("CRLF document parsed to %+v", root)
	}
}
