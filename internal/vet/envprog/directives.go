package envprog

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //bbbvet: persistency directives, in the directive family of
// internal/vet. A commit-store or volatile directive covers its own line
// and the next, like //bbbvet:ignore.
const (
	// SchemeDirective pins a file's target scheme: pmem, bbb or eadr.
	SchemeDirective = "//bbbvet:scheme"
	// commitDirective annotates a publish store, optionally naming its
	// dependees.
	commitDirective = "//bbbvet:commit-store"
	// volatileDirective marks a function's returned addresses as
	// DRAM-side scratch.
	volatileDirective = "//bbbvet:volatile"
)

// Directives are one package's persistency directives.
type Directives struct {
	// Schemes maps a file to its pinned scheme.
	Schemes map[*ast.File]string
	// UnknownSchemes are scheme directives naming no known scheme, in
	// source order.
	UnknownSchemes []UnknownScheme
	// VolatileFuncs are the functions a volatile directive covers.
	VolatileFuncs map[*types.Func]bool

	commits map[string]map[int][]string // file -> line -> dependee names
}

// UnknownScheme is a scheme directive with an unrecognized value.
type UnknownScheme struct {
	Pos   token.Pos
	Value string
}

func (p *Prog) scanDirectives() {
	d := &p.Directives
	d.Schemes = make(map[*ast.File]string)
	d.commits = make(map[string]map[int][]string)
	d.VolatileFuncs = make(map[*types.Func]bool)
	volatile := make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSuffix(c.Text, "*/")
				if strings.HasPrefix(text, "/*") {
					text = "//" + strings.TrimSpace(text[2:])
				}
				pos := p.Fset.Position(c.Pos())
				switch {
				case strings.HasPrefix(text, commitDirective):
					deps := strings.Fields(strings.TrimPrefix(text, commitDirective))
					if deps == nil {
						deps = []string{} // no names: infer from the stored value
					}
					cover(d.commits, pos, deps)
				case strings.HasPrefix(text, SchemeDirective):
					val := strings.TrimSpace(strings.TrimPrefix(text, SchemeDirective))
					switch val {
					case "pmem", "bbb", "eadr":
						d.Schemes[f] = val
					default:
						d.UnknownSchemes = append(d.UnknownSchemes, UnknownScheme{c.Pos(), val})
					}
				case strings.HasPrefix(text, volatileDirective):
					cover(volatile, pos, true)
				}
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				at := p.Fset.Position(fd.Pos())
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok && volatile[at.Filename][at.Line] {
					d.VolatileFuncs[fn] = true
				}
			}
		}
	}
}

func cover[T any](m map[string]map[int]T, pos token.Position, v T) {
	byLine := m[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]T)
		m[pos.Filename] = byLine
	}
	byLine[pos.Line] = v
	byLine[pos.Line+1] = v
}

// CommitDeps returns the dependee names of the commit-store directive
// covering pos (empty: infer them from the stored value), if any.
func (p *Prog) CommitDeps(pos token.Pos) ([]string, bool) {
	at := p.Fset.Position(pos)
	deps, ok := p.commits[at.Filename][at.Line]
	return deps, ok
}
