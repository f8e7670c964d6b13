// Command deadexports lists every exported identifier declared under
// internal/ (outside analyzers/) that no file in the module references.
// Test, cmd, example and benchmark/ files count as references, so the names
// benchmark/ pins are kept by its own imports; methods that satisfy an
// interface (fmt.Stringer, sort.Interface, the module's own) are exempt.
// A swept tree prints nothing and exits 0. scripts/lint.sh runs it.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"log"
	"path/filepath"
	"strings"
)

var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil)
	// files is the one shared parse, by import path; a directory's in-package
	// tests are under path+" test", its external test package under path+"_test".
	files = map[string][]*ast.File{}
	pkgs  = map[string]*types.Package{} // import path → checked non-test package
	info  = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	// Test packages add references only: re-checking a package beside its
	// tests must not replace the declarations its importers were checked against.
	testInfo = &types.Info{Uses: info.Uses}
	// ifaces is every interface-typed name the program and its imports declare.
	ifaces = []types.Type{types.Universe.Lookup("error").Type()}
	seen   = map[*types.Package]bool{}
)

type moduleImporter struct{}

// Import type-checks the module's own packages from the shared parse, so a
// reference and its declaration agree on a position; the rest is stdlib.
func (moduleImporter) Import(path string) (*types.Package, error) {
	if files[path] == nil {
		return stdlib.Import(path)
	}
	if pkgs[path] == nil {
		pkgs[path] = check(path, files[path], info)
	}
	return pkgs[path], nil
}

func check(path string, src []*ast.File, into *types.Info) *types.Package {
	pkg, err := (&types.Config{Importer: moduleImporter{}}).Check(path, fset, src, into)
	if err != nil {
		log.Fatal(err)
	}
	return pkg
}

func scanInterfaces(p *types.Package) {
	if seen[p] {
		return
	}
	seen[p] = true
	for _, n := range p.Scope().Names() {
		if t := p.Scope().Lookup(n).Type(); types.IsInterface(t) {
			ifaces = append(ifaces, t)
		}
	}
	for _, q := range p.Imports() {
		scanInterfaces(q)
	}
}

// satisfies reports whether m is a method that is there for an interface:
// one in ifaces, or the unnamed ones package errors asserts (Unwrap, Is, As).
func satisfies(m *types.Func) bool {
	if m == nil || m.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	ptr := recv
	if _, ok := recv.(*types.Pointer); !ok {
		ptr = types.NewPointer(recv)
	}
	for _, t := range ifaces {
		i := t.Underlying().(*types.Interface)
		if o, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); o != nil && types.Implements(ptr, i) {
			return true
		}
	}
	return types.IsInterface(recv) || m.Name() == "Unwrap" || m.Name() == "Is" || m.Name() == "As"
}

func main() {
	log.SetFlags(0)
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := e.Name(); e.IsDir() && (n == "testdata" || len(n) > 1 && n[0] == '.') {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := strings.TrimSuffix("sqlml/"+filepath.ToSlash(filepath.Dir(p)), "/.")
		if strings.HasSuffix(f.Name.Name, "_test") {
			key += "_test"
		} else if strings.HasSuffix(p, "_test.go") {
			key += " test"
		}
		files[key] = append(files[key], f)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for key, src := range files {
		if path, ok := strings.CutSuffix(key, " test"); ok {
			check(path, append(src, files[path]...), testInfo)
		} else if strings.HasSuffix(key, "_test") {
			check(key, src, testInfo)
		} else if _, err := (moduleImporter{}).Import(key); err != nil {
			log.Fatal(err)
		}
	}
	used := map[token.Pos]bool{} // declaration position → referenced somewhere
	for _, obj := range info.Uses {
		used[obj.Pos()] = true
	}
	for _, p := range pkgs {
		scanInterfaces(p)
	}
	dead := 0
	for id, obj := range info.Defs {
		pos := fset.Position(id.Pos())
		if obj == nil || !id.IsExported() || used[obj.Pos()] ||
			!strings.HasPrefix(pos.Filename, "internal/") || strings.HasPrefix(pos.Filename, "internal/analyzers/") {
			continue
		}
		local := obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope()
		v, _ := obj.(*types.Var)
		m, _ := obj.(*types.Func)
		if local || v != nil && v.Embedded() || satisfies(m) {
			continue
		}
		fmt.Printf("%s: %s.%s is exported but referenced nowhere\n", pos, obj.Pkg().Name(), id.Name)
		dead++
	}
	if dead > 0 {
		log.Fatalf("deadexports: %d unreferenced exported names", dead)
	}
}
