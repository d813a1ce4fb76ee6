package sws_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose code names must exist: a name in backticks is a
// claim about the code, and one that outlived its code misleads whoever
// reads it next.
var checkedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// The documents, beside checkedDocs and the Go code, whose DESIGN §n.m
// citations must resolve. The changelog is history and is left out.
var citingDocs = []string{
	"ROADMAP.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md",
	"docs/METRICS.md", "benchmark/README.md",
}

var (
	fenceRE    = regexp.MustCompile("(?ms)^```.*?^```")
	spanRE     = regexp.MustCompile("`([^`]+)`")
	goFileRE   = regexp.MustCompile(`[\w./*-]*\w\.go\b`)
	testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	selectorRE = regexp.MustCompile(`\b([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	citationRE = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:\.\d+)?(?:, §\d+(?:\.\d+)?)*`)
	sectionRE  = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	headingRE  = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
)

// goPackage is what a document may name in one package: its top-level
// declarations and, per type, its fields and methods.
type goPackage struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (p *goPackage) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// has reports whether sel — Ident, or Type.Member — names something in the
// package. A bare Ident may also be a member of any type: prose names a
// method by its package more often than by its receiver.
func (p *goPackage) has(ident, member string) bool {
	if member != "" {
		return p.members[ident][member]
	}
	if p.top[ident] {
		return true
	}
	for _, m := range p.members {
		if m[ident] {
			return true
		}
	}
	return false
}

// goIndex is every Go file, package and test function in the repository.
type goIndex struct {
	files []string // slash paths
	pkgs  map[string]*goPackage
	tests []string
}

func indexGo(t *testing.T) *goIndex {
	t.Helper()
	ix := &goIndex{pkgs: map[string]*goPackage{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		ix.files = append(ix.files, filepath.ToSlash(path))
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		pkg := ix.pkgs[name]
		if pkg == nil {
			pkg = &goPackage{top: map[string]bool{}, members: map[string]map[string]bool{}}
			ix.pkgs[name] = pkg
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					pkg.top[decl.Name.Name] = true
					if strings.HasSuffix(path, "_test.go") {
						ix.tests = append(ix.tests, decl.Name.Name)
					}
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					pkg.member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						pkg.top[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									pkg.member(spec.Name.Name, n.Name)
								}
								if len(field.Names) == 0 {
									if id, ok := field.Type.(*ast.Ident); ok {
										pkg.member(spec.Name.Name, id.Name)
									}
								}
							}
						}
						if it, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									pkg.member(spec.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							pkg.top[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// staleNames returns the names in doc's backtick spans that name no Go
// file, package identifier or test function in the repository.
func (ix *goIndex) staleNames(doc string) []string {
	var stale []string
	for _, m := range spanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(doc, ""), -1) {
		span := m[1]
		for _, file := range goFileRE.FindAllString(span, -1) {
			if !ix.hasFile(file) {
				stale = append(stale, file)
			}
		}
		span = goFileRE.ReplaceAllString(span, "")
		for _, name := range testNameRE.FindAllString(span, -1) {
			if !ix.hasTest(name) {
				stale = append(stale, name)
			}
		}
		for _, at := range selectorRE.FindAllStringSubmatchIndex(span, -1) {
			sel := span[at[0]:at[1]]
			pkg := ix.pkgs[span[at[2]:at[3]]]
			if pkg == nil || span[at[2]:at[3]] == "main" || strings.Contains(sel, "_") ||
				at[0] > 0 && strings.ContainsRune("-./", rune(span[at[0]-1])) {
				// A variable, a flag, a metric or benchmark row name, part of a
				// path, or code outside the repository.
				continue
			}
			member := ""
			if at[6] >= 0 {
				member = span[at[6]:at[7]]
			}
			if !pkg.has(span[at[4]:at[5]], member) {
				stale = append(stale, sel)
			}
		}
	}
	return stale
}

func (ix *goIndex) hasFile(name string) bool {
	if strings.Contains(name, "*") || strings.HasPrefix(name, "_") {
		return true // a pattern: *_test.go, grep -v _test.go
	}
	for _, f := range ix.files {
		if f == name || strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}

// hasTest accepts a prefix of a test's name: documents quote -run
// patterns, which match by prefix as often as by whole name.
func (ix *goIndex) hasTest(name string) bool {
	for _, tn := range ix.tests {
		if strings.HasPrefix(tn, name) {
			return true
		}
	}
	return false
}

// TestDocReferencesResolve fails when DESIGN.md, README.md or
// EXPERIMENTS.md names, in backticks, a Go file, a pkg.Ident or a test
// that no longer exists, or when a DESIGN §n.m citation in the Go code,
// checkedDocs or citingDocs has no heading of that number in DESIGN.md.
func TestDocReferencesResolve(t *testing.T) {
	ix := indexGo(t)
	for _, name := range checkedDocs {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ix.staleNames(string(src)) {
			t.Errorf("%s names `%s`, which does not exist", name, s)
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	checkCitations := func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, cite := range citationRE.FindAllString(string(src), -1) {
			for _, sec := range sectionRE.FindAllStringSubmatch(cite, -1) {
				if !sections[sec[1]] {
					t.Errorf("%s cites DESIGN §%s, which has no heading", path, sec[1])
				}
			}
		}
		return nil
	}
	for _, name := range append(append([]string{}, checkedDocs...), citingDocs...) {
		if err := checkCitations(name); err != nil {
			t.Fatal(err)
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		return checkCitations(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}
