// Command deadapi lists every exported function or method, declared in a
// non-main package of the module rooted at the working directory, that no
// non-test Go file in the tree references. References are matched by name,
// so a method counts as used when any selector of that name appears; the
// tree includes nested modules (bench/) and examples, but not testdata.
//
//	go run ./cmd/deadapi [root]
//
// It prints one line per finding and exits 1 if there is any. Methods that
// satisfy a standard-library interface are exempt, and so are the entries of
// allowlist below.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowlist maps "<package dir>.<Func>" or "<package dir>.<Recv>.<Method>" to
// the reason the declaration stays without a non-test caller.
var allowlist = map[string]string{
	"internal/nffg.NFFG.Sealed":                    "tests in nffg, core and embed assert the seal invariant through it",
	"internal/obs.MetricNames":                     "TestMetricsCompleteness, a CI step, reads the registered names",
	"internal/api.Client.ViewCacheStats":           "the gated E15 benchmark reads the remote view cache through it",
	"internal/dataplane.FlowTable.LookupBatchInto": "BenchmarkE5 measures batched against per-packet lookups through it",
	"internal/service.Orchestrator.Migrate":        "make-before-break Update (ROADMAP item 7) is to call it; fig1_migration_test covers it",
}

// stdlibMethods are method names a standard-library interface calls.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"Is": true, "As": true, "ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Lock": true, "Unlock": true,
}

// decl is one exported function or method a package declares.
type decl struct {
	key       string // allowlist key
	dir, name string // package directory (relative to root) and name
	method    bool
	pos       token.Position
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dead, err := find(root, allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Printf("%s: %s has no non-test caller\n", d.pos, d.key)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadapi: %d exported functions without a caller: delete them, or allowlist one with a reason\n", len(dead))
		os.Exit(1)
	}
}

// refset is what the non-test files of the tree reference: pkg.Name selectors
// on an imported package by "<import path>.<Name>", bare identifiers by
// "<dir>.<Name>", and every name outside a pkg.Name selector by itself.
type refset struct{ qual, local, names map[string]bool }

// find parses every Go file under root and returns the unreferenced exported
// declarations of root's module, sorted by position, minus those in allow.
func find(root string, allow map[string]string) ([]decl, error) {
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := modulePath(string(modData))
	fset := token.NewFileSet()
	var decls []decl
	used := refset{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		inModule := f.Name.Name != "main" && !inNestedModule(root, rel)
		collect(f, rel, inModule, fset, &decls, used)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []decl
	for _, d := range decls {
		ref := used.names[d.name]
		if !d.method {
			ref = used.local[d.dir+"."+d.name] || used.qual[path.Join(module, d.dir)+"."+d.name]
		}
		if _, ok := allow[d.key]; !ok && !ref {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return dead, nil
}

// collect records f's exported declarations (when inModule) and its
// references, leaving out declared names and a function's references to its
// own name.
func collect(f *ast.File, dir string, inModule bool, fset *token.FileSet, decls *[]decl, used refset) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			refs(d, "", dir, imports, used)
			continue
		}
		refs(fn.Type, "", dir, imports, used)
		if fn.Recv != nil {
			refs(fn.Recv, "", dir, imports, used)
		}
		if fn.Body != nil {
			refs(fn.Body, fn.Name.Name, dir, imports, used)
		}
		if !inModule || !fn.Name.IsExported() {
			continue
		}
		dc := decl{key: dir + "." + fn.Name.Name, dir: dir, name: fn.Name.Name, pos: fset.Position(fn.Pos())}
		if fn.Recv != nil {
			recv := recvName(fn.Recv.List[0].Type)
			if !ast.IsExported(recv) || stdlibMethods[fn.Name.Name] {
				continue
			}
			dc.key, dc.method = dir+"."+recv+"."+fn.Name.Name, true
		}
		*decls = append(*decls, dc)
	}
}

// refs records the references under n, except to self and the names a struct
// type declares for its fields.
func refs(n ast.Node, self, dir string, imports map[string]string, used refset) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				refs(fld.Type, self, dir, imports, used)
			}
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				used.qual[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
		case *ast.Ident:
			if n.Name != self {
				used.local[dir+"."+n.Name] = true
				used.names[n.Name] = true
			}
		}
		return true
	})
}

// modulePath returns the module line of a go.mod file.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// inNestedModule reports whether dir (relative to root) lies in a module of
// its own, i.e. some directory between root and dir holds a go.mod.
func inNestedModule(root, dir string) bool {
	for dir != "." && dir != "" {
		if _, err := os.Stat(filepath.Join(root, dir, "go.mod")); err == nil {
			return true
		}
		dir = filepath.Dir(dir)
	}
	return false
}
