package config

import (
	"fmt"
	"strconv"
	"strings"
)

// The scenario document format is a strict YAML subset, parsed by hand
// (the repo takes no dependencies): indentation-scoped mappings, "- "
// block lists, flow lists of scalars ("[net, fs]"), plain and quoted
// scalars, and "#" comments. Everything else YAML allows — anchors,
// aliases, tags, flow maps, block scalars, multiple documents, tab
// indentation — is declined with a typed error rather than guessed at
// (the llenc rule: a document either parses to exactly what it says or
// it does not parse). Positions survive into every node so schema
// errors point at the offending line and column.

// nodeKind discriminates parsed nodes.
type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	listNode
)

func (k nodeKind) String() string {
	switch k {
	case scalarNode:
		return "scalar"
	case mapNode:
		return "mapping"
	case listNode:
		return "list"
	}
	return fmt.Sprintf("node(%d)", int(k))
}

// node is one parsed value with its document position (1-based).
type node struct {
	kind   nodeKind
	line   int
	col    int
	scalar string // scalarNode: decoded text
	quoted bool   // scalarNode: was quoted (always a string, never a unit)
	keys   []mapEntry
	items  []*node
}

// mapEntry is one mapping key/value pair; the key's own position
// anchors unknown-field errors.
type mapEntry struct {
	key     string
	keyLine int
	keyCol  int
	val     *node
}

// get returns the value for key, nil when absent.
func (n *node) get(key string) *node {
	for i := range n.keys {
		if n.keys[i].key == key {
			return n.keys[i].val
		}
	}
	return nil
}

// srcLine is one content-bearing document line, comments stripped.
type srcLine struct {
	indent int    // leading spaces
	text   string // content after the indent
	line   int    // 1-based source line
}

type parser struct {
	lines []srcLine
	pos   int
}

// parseDoc parses a whole document into its top-level mapping.
func parseDoc(data []byte) (*node, *Error) {
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, &Error{Code: ErrSyntax, Line: 1, Col: 1, Msg: "empty document"}
	}
	p := &parser{lines: lines}
	first := p.lines[0]
	if first.indent != 0 {
		return nil, &Error{Code: ErrSyntax, Line: first.line, Col: first.indent + 1,
			Msg: "top level must start at column 1"}
	}
	if strings.HasPrefix(first.text, "-") {
		return nil, &Error{Code: ErrSyntax, Line: first.line, Col: 1,
			Msg: "top level must be a mapping, not a list"}
	}
	root, perr := p.parseMap(0)
	if perr != nil {
		return nil, perr
	}
	if p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
			Msg: fmt.Sprintf("unexpected content %q", ln.text)}
	}
	return root, nil
}

// splitLines strips comments and blanks, validates indentation, and
// declines multi-document and directive markers up front.
func splitLines(data []byte) ([]srcLine, *Error) {
	var out []srcLine
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, &Error{Code: ErrSyntax, Line: lineNo, Col: indent + 1,
				Msg: "tab in indentation (use spaces)"}
		}
		text := line[indent:]
		if text == "" || text[0] == '#' {
			continue
		}
		if indent == 0 {
			switch {
			case text == "---" || strings.HasPrefix(text, "--- "):
				return nil, &Error{Code: ErrUnsupported, Line: lineNo, Col: 1,
					Msg: "multi-document streams are not supported"}
			case text[0] == '%':
				return nil, &Error{Code: ErrUnsupported, Line: lineNo, Col: 1,
					Msg: "YAML directives are not supported"}
			}
		}
		out = append(out, srcLine{indent: indent, text: text, line: lineNo})
	}
	return out, nil
}

// parseMap parses mapping entries at exactly indent.
func (p *parser) parseMap(indent int) (*node, *Error) {
	first := p.lines[p.pos]
	n := &node{kind: mapNode, line: first.line, col: first.indent + 1}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
				Msg: "unexpected indentation"}
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
				Msg: "list item where a mapping entry was expected"}
		}
		key, rest, perr := splitKey(ln)
		if perr != nil {
			return nil, perr
		}
		if n.get(key) != nil {
			return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
				Msg: fmt.Sprintf("duplicate key %q", key)}
		}
		entry := mapEntry{key: key, keyLine: ln.line, keyCol: ln.indent + 1}
		if rest == "" {
			// Block value on the following, deeper-indented lines.
			p.pos++
			val, perr := p.parseChild(indent, ln)
			if perr != nil {
				return nil, perr
			}
			entry.val = val
		} else {
			val, perr := parseInline(rest, ln.line, ln.indent+(len(ln.text)-len(rest))+1)
			if perr != nil {
				return nil, perr
			}
			entry.val = val
			p.pos++
		}
		n.keys = append(n.keys, entry)
	}
	return n, nil
}

// parseChild parses the block value of "key:" — the following lines
// indented deeper than the key.
func (p *parser) parseChild(parentIndent int, keyLine srcLine) (*node, *Error) {
	if p.pos >= len(p.lines) || p.lines[p.pos].indent <= parentIndent {
		return nil, &Error{Code: ErrSyntax, Line: keyLine.line, Col: keyLine.indent + 1,
			Msg: fmt.Sprintf("key %q has no value", strings.TrimSuffix(keyLine.text, ":"))}
	}
	child := p.lines[p.pos]
	if strings.HasPrefix(child.text, "- ") || child.text == "-" {
		return p.parseList(child.indent)
	}
	return p.parseMap(child.indent)
}

// parseList parses "- " items at exactly indent. The dash counts as
// indentation (as in YAML): an item's content re-enters the parser as a
// line indented past the dash, so "- key: value" starts a mapping whose
// further entries sit under the content column.
func (p *parser) parseList(indent int) (*node, *Error) {
	first := p.lines[p.pos]
	n := &node{kind: listNode, line: first.line, col: first.indent + 1}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
				Msg: "unexpected indentation"}
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			break // a sibling mapping key ends the list for the caller to reject
		}
		if ln.text == "-" {
			p.pos++
			item, perr := p.parseChild(indent, ln)
			if perr != nil {
				return nil, perr
			}
			n.items = append(n.items, item)
			continue
		}
		rest := ln.text[2:]
		extra := 0
		for extra < len(rest) && rest[extra] == ' ' {
			extra++
		}
		rest = rest[extra:]
		if rest == "" {
			return nil, &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
				Msg: "empty list item"}
		}
		contentIndent := ln.indent + 2 + extra
		if isMapStart(rest) {
			// Re-enter as a mapping whose first line is the item content.
			p.lines[p.pos] = srcLine{indent: contentIndent, text: rest, line: ln.line}
			item, perr := p.parseMap(contentIndent)
			if perr != nil {
				return nil, perr
			}
			n.items = append(n.items, item)
			continue
		}
		item, perr := parseInline(rest, ln.line, contentIndent+1)
		if perr != nil {
			return nil, perr
		}
		n.items = append(n.items, item)
		p.pos++
	}
	return n, nil
}

// splitKey splits "key: value" / "key:"; rest is "" for block values.
func splitKey(ln srcLine) (key, rest string, perr *Error) {
	idx := strings.IndexByte(ln.text, ':')
	if idx <= 0 || (idx+1 < len(ln.text) && ln.text[idx+1] != ' ') {
		return "", "", &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
			Msg: fmt.Sprintf("expected \"key: value\", got %q", ln.text)}
	}
	key = ln.text[:idx]
	if !validKey(key) {
		return "", "", &Error{Code: ErrSyntax, Line: ln.line, Col: ln.indent + 1,
			Msg: fmt.Sprintf("invalid key %q", key)}
	}
	rest = strings.TrimLeft(ln.text[idx+1:], " ")
	if rest != "" && rest[0] == '#' {
		rest = ""
	}
	return key, rest, nil
}

// isMapStart reports whether a list item's content begins a mapping.
func isMapStart(text string) bool {
	idx := strings.IndexByte(text, ':')
	if idx <= 0 {
		return false
	}
	if idx+1 < len(text) && text[idx+1] != ' ' {
		return false
	}
	return validKey(text[:idx])
}

// validKey admits the schema's key alphabet: letters, digits, '_', '-'.
func validKey(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// parseInline parses a scalar or flow list that sits on its key's (or
// dash's) line. col is the content's 1-based column.
func parseInline(text string, line, col int) (*node, *Error) {
	switch text[0] {
	case '[':
		return parseFlowList(text, line, col)
	case '"', '\'':
		s, rem, perr := parseQuoted(text, line, col)
		if perr != nil {
			return nil, perr
		}
		if rem = strings.TrimLeft(rem, " "); rem != "" && rem[0] != '#' {
			return nil, &Error{Code: ErrSyntax, Line: line, Col: col,
				Msg: fmt.Sprintf("unexpected trailing content %q after quoted scalar", rem)}
		}
		return &node{kind: scalarNode, line: line, col: col, scalar: s, quoted: true}, nil
	case '{':
		return nil, &Error{Code: ErrUnsupported, Line: line, Col: col,
			Msg: "flow mappings ({...}) are not supported"}
	case '&', '*':
		return nil, &Error{Code: ErrUnsupported, Line: line, Col: col,
			Msg: "anchors and aliases are not supported"}
	case '!':
		return nil, &Error{Code: ErrUnsupported, Line: line, Col: col,
			Msg: "tags are not supported"}
	case '|', '>':
		return nil, &Error{Code: ErrUnsupported, Line: line, Col: col,
			Msg: "block scalars are not supported (use a list of lines)"}
	case '?':
		return nil, &Error{Code: ErrUnsupported, Line: line, Col: col,
			Msg: "complex mapping keys are not supported"}
	}
	s := text
	if i := strings.Index(s, " #"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimRight(s, " ")
	if s == "" {
		return nil, &Error{Code: ErrSyntax, Line: line, Col: col, Msg: "empty value"}
	}
	return &node{kind: scalarNode, line: line, col: col, scalar: s}, nil
}

// parseFlowList parses "[a, b, c]" — scalars only, one line.
func parseFlowList(text string, line, col int) (*node, *Error) {
	end := strings.IndexByte(text, ']')
	if end < 0 {
		return nil, &Error{Code: ErrSyntax, Line: line, Col: col, Msg: "unclosed flow list"}
	}
	if rem := strings.TrimLeft(text[end+1:], " "); rem != "" && rem[0] != '#' {
		return nil, &Error{Code: ErrSyntax, Line: line, Col: col,
			Msg: fmt.Sprintf("unexpected trailing content %q after flow list", rem)}
	}
	n := &node{kind: listNode, line: line, col: col}
	inner := strings.TrimSpace(text[1:end])
	if inner == "" {
		return n, nil
	}
	offset := 1
	for _, part := range strings.Split(text[1:end], ",") {
		item := strings.TrimSpace(part)
		if item == "" {
			return nil, &Error{Code: ErrSyntax, Line: line, Col: col, Msg: "empty flow list element"}
		}
		itemCol := col + offset + (len(part) - len(strings.TrimLeft(part, " ")))
		if item[0] == '"' || item[0] == '\'' {
			s, rem, perr := parseQuoted(item, line, itemCol)
			if perr != nil {
				return nil, perr
			}
			if strings.TrimSpace(rem) != "" {
				return nil, &Error{Code: ErrSyntax, Line: line, Col: itemCol,
					Msg: "unexpected content after quoted flow element"}
			}
			n.items = append(n.items, &node{kind: scalarNode, line: line, col: itemCol, scalar: s, quoted: true})
		} else if strings.ContainsAny(item, "[]{}&*!|>?") {
			return nil, &Error{Code: ErrUnsupported, Line: line, Col: itemCol,
				Msg: "flow lists hold scalars only"}
		} else {
			n.items = append(n.items, &node{kind: scalarNode, line: line, col: itemCol, scalar: item})
		}
		offset += len(part) + 1
	}
	return n, nil
}

// parseQuoted decodes a leading quoted string, returning the remainder
// of the line after the closing quote.
func parseQuoted(text string, line, col int) (string, string, *Error) {
	quote := text[0]
	if quote == '\'' {
		// Single-quoted: '' escapes a literal quote, nothing else.
		var b strings.Builder
		i := 1
		for i < len(text) {
			if text[i] == '\'' {
				if i+1 < len(text) && text[i+1] == '\'' {
					b.WriteByte('\'')
					i += 2
					continue
				}
				return b.String(), text[i+1:], nil
			}
			b.WriteByte(text[i])
			i++
		}
		return "", "", &Error{Code: ErrSyntax, Line: line, Col: col, Msg: "unclosed single-quoted scalar"}
	}
	// Double-quoted: Go-style escapes via strconv.
	for i := 1; i < len(text); i++ {
		if text[i] == '\\' {
			i++
			continue
		}
		if text[i] == '"' {
			s, err := strconv.Unquote(text[:i+1])
			if err != nil {
				return "", "", &Error{Code: ErrSyntax, Line: line, Col: col,
					Msg: fmt.Sprintf("bad escape in quoted scalar: %v", err)}
			}
			return s, text[i+1:], nil
		}
	}
	return "", "", &Error{Code: ErrSyntax, Line: line, Col: col, Msg: "unclosed double-quoted scalar"}
}
