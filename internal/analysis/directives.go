package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Marks are the function-level directives of one declaration.
type Marks struct {
	// Hotpath means hotpathalloc checks the function (//ring:hotpath).
	Hotpath bool
	// Deterministic means ringdeterminism checks the function
	// (//ring:deterministic).
	Deterministic bool
	// Guards are the alloc-regression test names declared by the guard=
	// attribute of //ring:hotpath. The repo-level guard test
	// (TestHotpathGuardsAreLiveTests) asserts they exist and actually
	// measure allocations.
	Guards []string
	// Coldpath excludes the function from interprocedural hot-path
	// propagation (//ring:coldpath -- reason): the function is only ever
	// called off the steady-state path, so allocflow neither checks it nor
	// descends through it. The reason is mandatory.
	Coldpath bool
}

// line-scoped marker kinds.
const (
	markOrdered  = "ordered"
	markPrealloc = "prealloc"
)

// markedFunc is one annotated function declaration and its body span.
type markedFunc struct {
	pos, end token.Pos
	marks    Marks
}

// lineKey addresses one source line.
type lineKey struct {
	file string
	line int
}

// markIndex is the package-wide index of directives: annotated function
// spans, line markers (//ring:ordered, //ring:prealloc) and suppressions
// (//ringvet:ignore).
type markIndex struct {
	funcs    []markedFunc
	lines    map[lineKey]map[string]bool // marker kind set per line
	suppress map[lineKey]map[string]bool // analyzer set per line
}

// buildMarkIndex scans every comment in the files. Malformed directives are
// errors, not silent no-ops: a typo in an invariant annotation must not
// quietly disable the check.
func buildMarkIndex(fset *token.FileSet, files []*ast.File) (*markIndex, error) {
	idx := &markIndex{
		lines:    make(map[lineKey]map[string]bool),
		suppress: make(map[lineKey]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if err := idx.addComment(fset, c); err != nil {
					return nil, err
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil && fd.Body != nil {
				m, err := parseFuncMarks(fd.Doc)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", fset.Position(fd.Pos()), err)
				}
				if m.any() {
					idx.funcs = append(idx.funcs, markedFunc{pos: fd.Body.Pos(), end: fd.Body.End(), marks: m})
				}
			}
		}
	}
	return idx, nil
}

// addComment indexes one comment if it is a line-scoped directive.
func (idx *markIndex) addComment(fset *token.FileSet, c *ast.Comment) error {
	text := c.Text
	pos := fset.Position(c.Pos())
	key := lineKey{file: pos.Filename, line: pos.Line}
	switch {
	case strings.HasPrefix(text, "//ring:ordered"):
		addLineMark(idx.lines, key, markOrdered)
	case strings.HasPrefix(text, "//ring:prealloc"):
		addLineMark(idx.lines, key, markPrealloc)
	case strings.HasPrefix(text, "//ringvet:ignore"):
		names, reason, err := parseIgnore(text)
		if err != nil {
			return fmt.Errorf("%s: %w", pos, err)
		}
		_ = reason
		for _, n := range names {
			addLineMark(idx.suppress, key, n)
		}
	}
	return nil
}

func addLineMark(m map[lineKey]map[string]bool, key lineKey, kind string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][kind] = true
}

// parseIgnore parses "//ringvet:ignore name[,name...] -- reason". The reason
// is mandatory: a suppression without a stated justification is a finding in
// itself.
func parseIgnore(text string) (names []string, reason string, err error) {
	rest := strings.TrimPrefix(text, "//ringvet:ignore")
	list, reason, found := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	if !found || reason == "" {
		return nil, "", fmt.Errorf("ringvet:ignore needs a reason: %q (want //ringvet:ignore <analyzer> -- <why>)", text)
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !knownAnalyzer(n) {
			return nil, "", fmt.Errorf("ringvet:ignore names unknown analyzer %q", n)
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, "", fmt.Errorf("ringvet:ignore names no analyzer: %q", text)
	}
	return names, reason, nil
}

// parseFuncMarks extracts //ring:hotpath and //ring:deterministic from a
// declaration's doc comment.
func parseFuncMarks(doc *ast.CommentGroup) (Marks, error) {
	var m Marks
	for _, c := range doc.List {
		text := c.Text
		switch {
		case strings.HasPrefix(text, "//ring:hotpath"):
			m.Hotpath = true
			rest := strings.TrimSpace(strings.TrimPrefix(text, "//ring:hotpath"))
			for _, field := range strings.Fields(rest) {
				val, ok := strings.CutPrefix(field, "guard=")
				if !ok {
					return m, fmt.Errorf("ring:hotpath: unknown attribute %q (want guard=TestName)", field)
				}
				for _, g := range strings.Split(val, ",") {
					if g = strings.TrimSpace(g); g != "" {
						m.Guards = append(m.Guards, g)
					}
				}
			}
		case strings.HasPrefix(text, "//ring:deterministic"):
			if rest := strings.TrimSpace(strings.TrimPrefix(text, "//ring:deterministic")); rest != "" {
				return m, fmt.Errorf("ring:deterministic takes no attributes, got %q", rest)
			}
			m.Deterministic = true
		case strings.HasPrefix(text, "//ring:coldpath"):
			rest := strings.TrimSpace(strings.TrimPrefix(text, "//ring:coldpath"))
			if reason, ok := strings.CutPrefix(rest, "--"); !ok || strings.TrimSpace(reason) == "" {
				return m, fmt.Errorf("ring:coldpath needs a reason: %q (want //ring:coldpath -- <why this never runs per-message>)", text)
			}
			m.Coldpath = true
		}
	}
	return m, nil
}

// any reports whether any directive is set.
func (m Marks) any() bool {
	return m.Hotpath || m.Deterministic || m.Coldpath
}

// enclosing returns the marks of the innermost annotated function body
// containing pos.
func (idx *markIndex) enclosing(pos token.Pos) Marks {
	var best *markedFunc
	for i := range idx.funcs {
		f := &idx.funcs[i]
		if pos < f.pos || pos >= f.end {
			continue
		}
		if best == nil || f.pos > best.pos {
			best = f
		}
	}
	if best == nil {
		return Marks{}
	}
	return best.marks
}

// lineMarked reports whether pos's line, or the line directly above it,
// carries the given marker kind — covering both trailing comments and
// comments on their own line before the statement.
func (idx *markIndex) lineMarked(fset *token.FileSet, pos token.Pos, kind string) bool {
	p := fset.Position(pos)
	return idx.lines[lineKey{p.Filename, p.Line}][kind] ||
		idx.lines[lineKey{p.Filename, p.Line - 1}][kind]
}

// suppressed reports whether a //ringvet:ignore for the analyzer covers
// pos's line or the line above it.
func (idx *markIndex) suppressed(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	p := fset.Position(pos)
	return idx.suppress[lineKey{p.Filename, p.Line}][analyzer] ||
		idx.suppress[lineKey{p.Filename, p.Line - 1}][analyzer]
}
