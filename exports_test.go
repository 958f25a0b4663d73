package reversecloak_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// unusedDecls lists the package-level declarations in non-test code that
// no non-test code of either module uses, each with the reason it stays.
// Keys are <package path in the module>.Name, or .Type.Method for methods.
var unusedDecls = map[string]string{
	// Test oracles: the slow or literal definitions the tests check the
	// fast paths against.
	"internal/query.Index.RangeExact":         "test oracle: brute-force range query",
	"internal/cloak.NewTransitionTable":       "test oracle: the paper's Figure 2 transition table",
	"internal/cloak.TransitionTable.Value":    "test oracle: one cell of the Figure 2 table",
	"internal/cloak.TransitionTable.Forward":  "test oracle: the table's forward transition",
	"internal/cloak.TransitionTable.Backward": "test oracle: the table's backward transition",
	"internal/baseline.NaiveDeanonymize":      "test oracle: the encrypted-list strawman's round trip",

	// Hooks that tests use to build or inspect state.
	"internal/anonymizer/repl.Follower.Err":      "test hook: the error that stopped a follower",
	"internal/anonymizer.NewRegistration":        "test hook: a registration without a server",
	"internal/anonymizer.DurableStore.IsReplica": "test hook: a follower's replica flag",
	"internal/anonymizer/tenant.FromJSON":        "test hook: a registry from inline JSON",
	"internal/keys.Keyring.Reload":               "test hook: a key-file reload without a watch loop",
	"internal/leakcheck.Main":                    "test hook: the goroutine-leak TestMain",

	// The access-control API's listing, kept until the policy is reworked.
	"internal/accessctl.Policy.Requesters": "awaits the access-control rework",

	// A stream number kept so that the ones after it keep their values.
	"benchmark.streamWarmup": "reserves its iota value: deleting it renumbers streamYardstick and moves the yardstick's draws",

	// The temporal cloak, kept until it is wired into the service.
	"internal/temporal.New":               "pending item 9: temporal cloaking",
	"internal/temporal.Cloak.Anonymize":   "pending item 9: temporal cloaking",
	"internal/temporal.Cloak.Deanonymize": "pending item 9: temporal cloaking",
	"internal/temporal.Cloak.Levels":      "pending item 9: temporal cloaking",
}

// The two modules: the root and the benchmark harness, which imports the
// root's internal packages through a replace directive.
const rootModule = "github.com/reversecloak/reversecloak"

var moduleDirs = []string{".", "benchmark"}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	Dir, ImportPath string
	Standard        bool
	GoFiles         []string
	TestGoFiles     []string
	XTestGoFiles    []string
	Deps            []string
	Module          *struct{ GoVersion string }
}

// checkedFiles is one type-checked set of files: a package's non-test
// files, the same with its in-package tests, or its external tests.
type checkedFiles struct {
	files []*ast.File
	info  *types.Info
}

// modules is both modules, type-checked.
type modules struct {
	fset    *token.FileSet
	pkgs    []*types.Package // the non-test packages of both modules, in dependency order
	nonTest []checkedFiles   // pkgs' files, in the same order
	tests   []checkedFiles   // the test variants
	errs    []string         // type errors, with positions
}

var (
	loadOnce   sync.Once
	loaded     *modules
	loadFailed error
)

// loadModules type-checks every package of both modules, tests included,
// once per test binary. A type error anywhere, benchmark/ included, fails
// the caller.
func loadModules(t *testing.T) *modules {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = load() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	if len(loaded.errs) > 0 {
		t.Fatalf("the modules do not type-check:\n%s", strings.Join(loaded.errs, "\n"))
	}
	return loaded
}

func load() (*modules, error) {
	var listed []*listedPackage
	seen := map[string]bool{}
	for _, dir := range moduleDirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		// -deps prints each package after its dependencies.
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listedPackage)
			if err := dec.Decode(p); err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	m := &modules{fset: token.NewFileSet()}
	std := importer.ForCompiler(m.fset, "source", nil)
	byPath := map[string]*types.Package{}
	check := func(p *listedPackage, path string, names []string, into *[]checkedFiles, imports map[string]*types.Package) (*types.Package, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			GoVersion: "go" + p.Module.GoVersion,
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if pkg, ok := imports[path]; ok {
					return pkg, nil
				}
				if pkg, ok := byPath[path]; ok {
					return pkg, nil
				}
				return std.Import(path)
			}),
			Error: func(err error) {
				// Test variants check a package's files again: report each error once.
				if !contains(m.errs, err.Error()) {
					m.errs = append(m.errs, err.Error())
				}
			},
		}
		pkg, _ := conf.Check(path, m.fset, files, info)
		*into = append(*into, checkedFiles{files: files, info: info})
		return pkg, nil
	}

	for _, p := range listed {
		pkg, err := check(p, p.ImportPath, p.GoFiles, &m.nonTest, nil)
		if err != nil {
			return nil, err
		}
		byPath[p.ImportPath] = pkg
		m.pkgs = append(m.pkgs, pkg)
	}

	// Tests may import packages that import the package under test, so
	// they are checked once every non-test package is. As `go test` does,
	// external tests see the package under test with its in-package test
	// files, and so does every module package between the two.
	for _, p := range listed {
		under := byPath[p.ImportPath]
		if len(p.TestGoFiles) > 0 {
			var err error
			if under, err = check(p, p.ImportPath, append(p.GoFiles, p.TestGoFiles...), &m.tests, nil); err != nil {
				return nil, err
			}
		}
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		imports := map[string]*types.Package{p.ImportPath: under}
		if len(p.TestGoFiles) > 0 {
			for _, q := range listed {
				if contains(q.Deps, p.ImportPath) {
					pkg, err := check(q, q.ImportPath, q.GoFiles, &m.tests, imports)
					if err != nil {
						return nil, err
					}
					imports[q.ImportPath] = pkg
				}
			}
		}
		if _, err := check(p, p.ImportPath+"_test", p.XTestGoFiles, &m.tests, imports); err != nil {
			return nil, err
		}
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// declKey names a package-level object the way unusedDecls does.
func declKey(obj types.Object) string {
	path := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), rootModule), "/")
	if path == "" {
		path = obj.Pkg().Name()
	}
	if recv := recvNamed(obj); recv != nil {
		return path + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return path + "." + obj.Name()
}

// recvNamed is the named receiver type of a method, nil for anything else.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return namedOf(recv.Type())
}

// namedOf is t's named type, through one pointer; nil if t has none.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// TestEveryDeclarationIsUsed keeps both modules free of dead code: every
// package-level func, method, type, var and const in non-test code must
// be used, by object, by non-test code of either module outside its own
// declaration, or be listed in unusedDecls with a reason. A method also
// counts as used when its type, or a pointer to it, implements a loaded
// interface (the standard library's included) that declares the method,
// or when the root package aliases its type; the root package's exported
// names are the library's API. A listed declaration that gains a use
// fails too, so the list cannot go stale. Struct fields are out of scope:
// encoding/json reaches them by reflection.
func TestEveryDeclarationIsUsed(t *testing.T) {
	m := loadModules(t)

	// Each declaration and the extent of its declaring node; a use
	// inside that extent, such as a recursive call, does not count, and
	// nor does a method's receiver type.
	type extent struct{ from, to token.Pos }
	decls := map[types.Object]extent{}
	receivers := map[*ast.Ident]bool{}
	for _, c := range m.nonTest {
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
						continue
					}
					decls[c.info.Defs[d.Name]] = extent{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[c.info.Defs[s.Name]] = extent{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									decls[c.info.Defs[id]] = extent{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no declarations found")
	}

	used := map[types.Object]bool{}
	for _, c := range m.nonTest {
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if e, ok := decls[obj]; ok && !receivers[id] && (id.Pos() < e.from || id.Pos() >= e.to) {
				used[obj] = true
			}
		}
	}

	// Methods the root package's aliases make public.
	public := map[*types.Named]bool{}
	for _, pkg := range m.pkgs {
		if pkg.Path() != rootModule {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					public[named] = true
				}
			}
		}
	}

	objs := make([]types.Object, 0, len(decls))
	for obj := range decls {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })

	ifaces := loadedInterfaces(t, m.pkgs)
	for _, obj := range objs {
		recv := recvNamed(obj)
		switch {
		case obj.Pkg().Path() == rootModule && obj.Exported():
			used[obj] = true // the library's API, which the root Examples use
		case recv != nil && (public[recv] || implements(recv, obj.Name(), ifaces)):
			used[obj] = true
		}
	}

	declared := map[string]bool{}
	for _, obj := range objs {
		key := declKey(obj)
		declared[key] = true
		reason, listed := unusedDecls[key]
		switch {
		case !used[obj] && !listed:
			t.Errorf("%s: %s is used by no non-test code; delete it, or list it in unusedDecls with a reason",
				m.fset.Position(obj.Pos()), key)
		case used[obj] && listed:
			t.Errorf("%s: %s is listed in unusedDecls (%s) but non-test code now uses it; drop the entry",
				m.fset.Position(obj.Pos()), key, reason)
		}
	}
	for key := range unusedDecls {
		if !declared[key] {
			t.Errorf("unusedDecls lists %s, which is not a package-level declaration in non-test code", key)
		}
	}
}

// errorProtocols are the methods the errors package finds by asserting
// unnamed interfaces, which no package scope declares.
const errorProtocols = `package p

type (
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
)`

// loadedInterfaces indexes by method name every non-generic named
// interface in the scope of pkgs and of the packages they import,
// transitively, plus error and errorProtocols.
func loadedInterfaces(t *testing.T, pkgs []*types.Package) map[string][]*types.Interface {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", errorProtocols, 0)
	if err != nil {
		t.Fatal(err)
	}
	protocols, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]*types.Interface{}
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
				}
			}
		}
	}
	add(types.Universe)
	add(protocols.Scope())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		add(pkg.Scope())
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return byMethod
}

// implements reports whether t or *t implements an interface in ifaces
// that declares the method name.
func implements(t *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces[name] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// TestStdlibWithinGoVersion keeps both modules buildable by the Go
// release go.mod names: every standard-library object that any file of
// either module uses, tests included, must be in the API of a release no
// newer than go.mod's go line, as $GOROOT/api/go1.*.txt records it.
func TestStdlibWithinGoVersion(t *testing.T) {
	m := loadModules(t)
	minor := goModMinor(t)
	since := stdlibAPI(t)

	first := map[string]token.Pos{} // each too-new feature and its first use
	note := func(pos token.Pos, keys ...string) {
		for _, key := range keys {
			if v, ok := since[key]; ok {
				if p, seen := first[key]; v > minor && (!seen || pos < p) {
					first[key] = pos
				}
				return
			}
		}
	}
	for _, set := range [][]checkedFiles{m.nonTest, m.tests} {
		for _, c := range set {
			for sel, s := range c.info.Selections {
				obj := s.Obj()
				if obj.Pkg() == nil || isModule(obj.Pkg()) {
					continue
				}
				// The API files list a promoted method or field under each
				// type that promotes it, so try the operand's type first.
				var keys []string
				for _, named := range []*types.Named{namedOf(s.Recv()), recvNamed(obj)} {
					if named != nil && named.Obj().Pkg() != nil {
						keys = append(keys, named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+obj.Name())
					}
				}
				note(sel.Sel.Pos(), keys...)
			}
			for id, obj := range c.info.Uses {
				if obj.Pkg() != nil && !isModule(obj.Pkg()) && obj.Parent() == obj.Pkg().Scope() {
					note(id.Pos(), obj.Pkg().Path()+"."+obj.Name())
				}
			}
		}
	}

	keys := make([]string, 0, len(first))
	for key := range first {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return first[keys[i]] < first[keys[j]] })
	for _, key := range keys {
		t.Errorf("%s: %s is go1.%d API, newer than go.mod's go 1.%d",
			m.fset.Position(first[key]), key, since[key], minor)
	}
}

func isModule(pkg *types.Package) bool {
	return pkg.Path() == rootModule || strings.HasPrefix(pkg.Path(), rootModule+"/")
}

// goModMinor is the minor version of go.mod's go line.
func goModMinor(t *testing.T) int {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go 1."); ok {
			minor, err := strconv.Atoi(strings.SplitN(v, ".", 2)[0])
			if err != nil {
				t.Fatalf("go.mod: go line %q: %v", line, err)
			}
			return minor
		}
	}
	t.Fatal("go.mod has no go line")
	return 0
}

// stdlibAPI maps each standard-library API feature to the minor release
// that added it. Keys are path.Name for package-level objects and
// path.Type.Name for methods, struct fields and interface methods.
func stdlibAPI(t *testing.T) map[string]int {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(strings.TrimSpace(string(out)), "api", "go1*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no API files under GOROOT/api (%v)", err)
	}
	since := map[string]int{}
	for _, file := range files {
		minor := 0
		if v, ok := strings.CutPrefix(strings.TrimSuffix(filepath.Base(file), ".txt"), "go1."); ok {
			if minor, err = strconv.Atoi(v); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		for sc := bufio.NewScanner(f); sc.Scan(); {
			key := apiKey(sc.Text())
			if v, ok := since[key]; key != "" && (!ok || minor < v) {
				since[key] = minor
			}
		}
		f.Close()
	}
	return since
}

// apiKey turns one line of an API file, such as
// "pkg testing, method (*B) Loop() bool", into its key ("testing.B.Loop");
// "" for a line it does not recognise.
func apiKey(line string) string {
	rest, ok := strings.CutPrefix(line, "pkg ")
	if !ok {
		return ""
	}
	path, rest, ok := strings.Cut(rest, ", ")
	if !ok {
		return ""
	}
	path, _, _ = strings.Cut(path, " ") // drop a "(linux-amd64)" qualifier
	name := func(s string) string {
		return strings.FieldsFunc(s, func(r rune) bool { return strings.ContainsRune(" ([=", r) })[0]
	}
	kind, rest, _ := strings.Cut(rest, " ")
	switch kind {
	case "func", "const", "var":
		return path + "." + name(rest)
	case "method":
		recv, method, _ := strings.Cut(rest, ") ")
		return path + "." + name(strings.TrimLeft(recv, "(*")) + "." + name(method)
	case "type":
		typ, member, ok := strings.Cut(rest, ", ")
		if !ok {
			return path + "." + name(typ)
		}
		return path + "." + name(typ) + "." + name(member)
	}
	return ""
}
