package serve

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is a deliberately small YAML decoder for campaign specs. The
// module takes no dependencies, so rather than importing a YAML library
// the daemon accepts the subset specs actually use — nested maps by
// two-or-more-space indentation, block lists ("- item"), flow lists
// ("[a, b]"), quoted and bare scalars, comments — and produces exactly
// the generic tree encoding/json produces for the equivalent JSON
// document (map[string]any, []any, string, json.Number, bool, nil).
// Everything downstream (schema walk, unknown-field rejection, path
// reporting) is therefore format-agnostic: YAML and JSON submissions
// flow through one validation path.
//
// Out-of-subset constructs (anchors, multi-line scalars, tabs in
// indentation, nested lists) fail loudly with a line number instead of
// being misparsed.

// yamlLine is one significant (non-blank, non-comment) line of input.
type yamlLine struct {
	indent int
	text   string // content after indentation, comment stripped, trimmed right
	num    int    // 1-based source line
}

// parseYAML parses a YAML-subset document into a generic JSON-style tree.
func parseYAML(data []byte) (any, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		line, err := lexYAMLLine(raw, i+1)
		if err != nil {
			return nil, err
		}
		if line.text != "" {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	p := &yamlParser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected de-indented content %q", l.num, l.text)
	}
	return v, nil
}

// lexYAMLLine strips the comment and measures indentation.
func lexYAMLLine(raw string, num int) (yamlLine, error) {
	indent := 0
	for indent < len(raw) && raw[indent] == ' ' {
		indent++
	}
	if indent < len(raw) && raw[indent] == '\t' {
		return yamlLine{}, fmt.Errorf("line %d: tab in indentation (use spaces)", num)
	}
	// A "#" starts a comment at the line start or after a blank, outside
	// quotes.
	text := raw[indent:]
	text = text[:scanUnquoted(text, func(i int) bool {
		return text[i] == '#' && (i == 0 || text[i-1] == ' ' || text[i-1] == '\t')
	})]
	text = strings.TrimRight(text, " \t")
	if strings.HasPrefix(text, "---") && strings.TrimSpace(text[3:]) == "" {
		text = "" // document marker: ignore
	}
	return yamlLine{indent: indent, text: text, num: num}, nil
}

// scanUnquoted returns the index of the first byte outside quotes at
// which stop holds, or len(s). Inside double quotes a backslash escapes
// the next byte, as in JSON; single quotes have no escapes.
func scanUnquoted(s string, stop func(i int) bool) int {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inDouble && c == '\\':
			i++
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case !inSingle && !inDouble && stop(i):
			return i
		}
	}
	return len(s)
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseBlock parses the run of lines at exactly the given indentation —
// either a map (key: ...) or a list (- item) — until a shallower line.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	l := p.lines[p.pos]
	if l.indent != indent {
		return nil, fmt.Errorf("line %d: inconsistent indentation", l.num)
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *yamlParser) parseList(indent int) (any, error) {
	items := []any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation inside list", l.num)
		}
		if l.text != "-" && !strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: expected list item, got %q", l.num, l.text)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			return nil, fmt.Errorf("line %d: nested block list items are outside the supported YAML subset", l.num)
		}
		v, err := parseYAMLScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
		p.pos++
	}
	return items, nil
}

func (p *yamlParser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		key, rest, err := splitYAMLKey(l.text, l.num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		p.pos++
		if rest == "" {
			// Block value: everything more deeply indented; nothing
			// following means an explicit null.
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				v, err := p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				m[key] = v
			} else {
				m[key] = nil
			}
			continue
		}
		v, err := parseYAMLScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// splitYAMLKey splits "key: value" (or "key:") on the first colon,
// outside quotes, followed by a blank or the end of the line: as in YAML,
// "m:5" is one plain scalar, not a key and a value. Campaign-spec keys
// are plain identifiers, so quoted keys are out of subset.
func splitYAMLKey(text string, num int) (key, rest string, err error) {
	i := scanUnquoted(text, func(i int) bool {
		return text[i] == ':' && (i+1 == len(text) || text[i+1] == ' ' || text[i+1] == '\t')
	})
	if i <= 0 || i == len(text) {
		return "", "", fmt.Errorf("line %d: expected \"key: value\", got %q", num, text)
	}
	key = strings.TrimSpace(text[:i])
	rest = strings.TrimSpace(text[i+1:])
	if key == "" || strings.ContainsAny(key, "\"'{}[],&*!|>%@`") {
		return "", "", fmt.Errorf("line %d: unsupported key %q", num, text[:i])
	}
	return key, rest, nil
}

// parseYAMLScalar parses a scalar or flow list.
func parseYAMLScalar(s string, num int) (any, error) {
	switch {
	case strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]"):
		inner := strings.TrimSpace(s[1 : len(s)-1])
		items := []any{}
		if inner == "" {
			return items, nil
		}
		for _, part := range splitFlowList(inner) {
			part = strings.TrimSpace(part)
			if part == "" {
				return nil, fmt.Errorf("line %d: empty element in flow list %q", num, s)
			}
			v, err := parseYAMLScalar(part, num)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		return items, nil
	case strings.HasPrefix(s, "\"") && strings.HasSuffix(s, "\"") && len(s) >= 2:
		var out string
		if err := json.Unmarshal([]byte(s), &out); err != nil {
			return nil, fmt.Errorf("line %d: bad quoted string %s: %v", num, s, err)
		}
		return out, nil
	case strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'") && len(s) >= 2:
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case s == "null" || s == "~":
		return nil, nil
	case strings.ContainsAny(s, "{}&*!|>%@`"):
		return nil, fmt.Errorf("line %d: %q is outside the supported YAML subset", num, s)
	default:
		if isJSONNumber(s) {
			return json.Number(s), nil
		}
		return s, nil
	}
}

// splitFlowList splits a flow-list body on top-level commas (quotes
// respected; flow lists of scalars only, so no bracket nesting).
func splitFlowList(s string) []string {
	var parts []string
	for {
		i := scanUnquoted(s, func(i int) bool { return s[i] == ',' })
		if i == len(s) {
			return append(parts, s)
		}
		parts, s = append(parts, s[:i]), s[i+1:]
	}
}

// isJSONNumber reports whether s is a valid JSON number literal, so YAML
// numbers surface as json.Number exactly like the JSON decode path's.
func isJSONNumber(s string) bool {
	var n json.Number
	return json.Unmarshal([]byte(s), &n) == nil
}
