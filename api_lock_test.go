package ddt

// API-surface lockfile: TestAPISurfaceLock renders the exported
// identifiers of the ddt facade and the campaign/core/fuzz packages into a
// canonical text form and diffs it against the committed api/ddt.txt.
// Surface changes are then explicit, reviewable diffs of that file, never
// accidents. Regenerate after an intentional change with
//
//	UPDATE_API=1 go test -run TestAPISurfaceLock .
//
// The dump is built with the standard library parser only (go/parser +
// go/ast), so the gate needs no tools beyond the toolchain itself.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// lockedPackages is the surface under lock: the public facade plus the
// internal packages the facade's envelope semantics are defined by.
var lockedPackages = []struct{ label, dir string }{
	{"ddt", "."},
	{"campaign", "internal/campaign"},
	{"core", "internal/core"},
	{"fuzz", "internal/fuzz"},
}

const apiLockFile = "api/ddt.txt"

func TestAPISurfaceLock(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# Exported API surface (generated by TestAPISurfaceLock).\n")
	buf.WriteString("# Regenerate: UPDATE_API=1 go test -run TestAPISurfaceLock .\n")
	for _, p := range lockedPackages {
		lines, err := apiSurface(p.dir)
		if err != nil {
			t.Fatalf("package %s: %v", p.label, err)
		}
		fmt.Fprintf(&buf, "\npackage %s\n", p.label)
		for _, l := range lines {
			buf.WriteString(l + "\n")
		}
	}
	got := buf.String()

	if os.Getenv("UPDATE_API") != "" {
		if err := os.MkdirAll(filepath.Dir(apiLockFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiLockFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiLockFile)
	if err != nil {
		t.Fatalf("%s missing: %v\nregenerate with: UPDATE_API=1 go test -run TestAPISurfaceLock .", apiLockFile, err)
	}
	if got != string(want) {
		t.Errorf("exported API surface drifted from %s:\n%s\nIf the change is intentional, regenerate with: UPDATE_API=1 go test -run TestAPISurfaceLock .",
			apiLockFile, surfaceDiff(string(want), got))
	}
}

// TestExportedDocComments is the doc-comment gate for the packages where
// the API redesign landed: every exported top-level identifier (and every
// exported method on an exported type) in the ddt facade and
// internal/campaign must carry a doc comment.
func TestExportedDocComments(t *testing.T) {
	for _, dir := range []string{".", "internal/campaign"} {
		missing, err := undocumentedExports(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, m := range missing {
			t.Errorf("%s: exported %s has no doc comment", dir, m)
		}
	}
}

// parseDirFiles parses every non-test .go file in dir and returns the
// fileset plus the files sorted by name (deterministic dump order).
func parseDirFiles(dir string) (*token.FileSet, []*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	for _, n := range names {
		if strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, n, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// apiSurface renders the exported surface of the package in dir as sorted
// canonical lines: funcs and methods with full signatures, types with
// their exported fields (structs) or collapsed underlying type, consts and
// vars by name.
func apiSurface(dir string) ([]string, error) {
	fset, files, err := parseDirFiles(dir)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					recv, exported := recvTypeName(d.Recv)
					if !exported {
						continue
					}
					add("method (%s) %s %s", recv, d.Name.Name, renderNode(fset, d.Type))
				} else {
					add("func %s %s", d.Name.Name, renderNode(fset, d.Type))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						lines = append(lines, typeLines(fset, s)...)
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							if s.Type != nil {
								add("%s %s %s", kind, n.Name, renderNode(fset, s.Type))
							} else {
								add("%s %s", kind, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// typeLines renders one exported type: structs become a header plus one
// line per exported field, interfaces a header plus one line per exported
// method or embedded element (comments dropped, so editing a doc comment
// never moves the lock), everything else collapses the underlying type
// onto the header line. Type parameters render as [T any].
func typeLines(fset *token.FileSet, s *ast.TypeSpec) []string {
	name := s.Name.Name + typeParams(fset, s.TypeParams)
	switch t := s.Type.(type) {
	case *ast.StructType:
		lines := []string{fmt.Sprintf("type %s struct", name)}
		for _, field := range t.Fields.List {
			if len(field.Names) == 0 {
				// Embedded field: exported when its base type name is.
				if base, exported := baseTypeName(field.Type); exported {
					lines = append(lines, fmt.Sprintf("type %s struct, embedded %s", name, base))
				}
				continue
			}
			for _, fn := range field.Names {
				if fn.IsExported() {
					lines = append(lines, fmt.Sprintf("type %s struct, field %s %s", name, fn.Name, renderNode(fset, field.Type)))
				}
			}
		}
		return lines
	case *ast.InterfaceType:
		lines := []string{fmt.Sprintf("type %s interface", name)}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				lines = append(lines, fmt.Sprintf("type %s interface, embedded %s", name, renderNode(fset, m.Type)))
				continue
			}
			for _, mn := range m.Names {
				if mn.IsExported() {
					lines = append(lines, fmt.Sprintf("type %s interface, method %s %s", name, mn.Name, renderNode(fset, m.Type)))
				}
			}
		}
		return lines
	}
	return []string{fmt.Sprintf("type %s %s", name, renderNode(fset, s.Type))}
}

// typeParams renders a type parameter list field by field ("[K, V any]"),
// or "" for a non-generic type. go/printer cannot print the bare
// *ast.FieldList itself.
func typeParams(fset *token.FileSet, fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	fields := make([]string, 0, len(fl.List))
	for _, f := range fl.List {
		names := make([]string, 0, len(f.Names))
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		fields = append(fields, strings.Join(names, ", ")+" "+renderNode(fset, f.Type))
	}
	return "[" + strings.Join(fields, ", ") + "]"
}

// TestTypeLinesRendersGenerics: generic types render their type parameters
// as source-style brackets, and an interface renders one line per method
// with its comments dropped.
func TestTypeLinesRendersGenerics(t *testing.T) {
	const src = `package p

// Frontier picks work.
type Frontier[T any] interface {
	// Next picks the next item.
	Next(w int) (T, Verdict)
	fmt.Stringer
	hidden()
}

// Pair holds two values.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
	note  string
}

// Set is a set.
type Set[K, V comparable] map[K]V
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		for _, spec := range decl.(*ast.GenDecl).Specs {
			got = append(got, typeLines(fset, spec.(*ast.TypeSpec))...)
		}
	}
	want := []string{
		"type Frontier[T any] interface",
		"type Frontier[T any] interface, method Next func(w int) (T, Verdict)",
		"type Frontier[T any] interface, embedded fmt.Stringer",
		"type Pair[K comparable, V any] struct",
		"type Pair[K comparable, V any] struct, field Key K",
		"type Pair[K comparable, V any] struct, field Value V",
		"type Set[K, V comparable] map[K]V",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("typeLines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// recvTypeName unwraps a method receiver to its base type name, reporting
// whether that type is exported. Pointer and generic receivers
// ((*Runner[T])) unwrap to the plain identifier.
func recvTypeName(recv *ast.FieldList) (string, bool) {
	if len(recv.List) == 0 {
		return "", false
	}
	base, exported := baseTypeName(recv.List[0].Type)
	if _, ptr := recv.List[0].Type.(*ast.StarExpr); ptr {
		base = "*" + base
	}
	return base, exported
}

// baseTypeName digs the plain identifier out of a type expression
// (pointers, generic instantiations, package qualifiers) and reports
// whether it is exported.
func baseTypeName(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name, e.IsExported()
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	case *ast.SelectorExpr:
		return renderNode(token.NewFileSet(), e), e.Sel.IsExported()
	}
	return "", false
}

var collapseSpace = regexp.MustCompile(`\s+`)

// renderNode prints an AST node in canonical gofmt style collapsed onto
// one line, so the dump is stable across source formatting.
func renderNode(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	return collapseSpace.ReplaceAllString(buf.String(), " ")
}

// undocumentedExports lists the exported top-level identifiers (and
// exported methods on exported types) in dir that lack a doc comment.
func undocumentedExports(dir string) ([]string, error) {
	_, files, err := parseDirFiles(dir)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					if recv, exported := recvTypeName(d.Recv); exported && d.Doc == nil {
						missing = append(missing, fmt.Sprintf("method (%s).%s", recv, d.Name.Name))
					}
					continue
				}
				if d.Doc == nil {
					missing = append(missing, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
							missing = append(missing, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
								missing = append(missing, "value "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// surfaceDiff renders a minimal line diff (added/removed lines) between
// the locked and generated surfaces — enough to see the drift without a
// diff tool in the test log.
func surfaceDiff(want, got string) string {
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(want, "\n") {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool)
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if l != "" && !gotSet[l] {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantSet[l] {
			fmt.Fprintf(&b, "  + %s\n", l)
		}
	}
	if b.Len() == 0 {
		return "  (lines reordered or whitespace changed)"
	}
	return b.String()
}
