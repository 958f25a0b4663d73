package reversecloak_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// unreferencedExports lists the exported identifiers under internal/ that
// no non-test code uses, each with the reason it stays. Keys are
// package.Name, or package.Type.Method for methods.
var unreferencedExports = map[string]string{
	// Test oracles: the slow or literal definitions the tests check the
	// fast paths against.
	"roadnet.Graph.Adjacent":            "test oracle: segment adjacency by definition",
	"roadnet.Graph.Connected":           "test oracle: every junction reaches every other",
	"roadnet.Graph.SegmentSetConnected": "test oracle: a segment set is connected",
	"roadnet.Graph.ShortestPath":        "test oracle: Dijkstra over junctions",
	"roadnet.Graph.HopDistance":         "test oracle: BFS hop count between segments",
	"roadnet.Graph.PathLength":          "test oracle: summed length of a segment path",
	"trace.Simulation.Position":         "test oracle: a car's coordinates on its segment",
	"query.Index.RangeExact":            "test oracle: brute-force range query",
	"cloak.CloakedRegion.SegmentSet":    "test oracle: a region as a set",
	"cloak.NewTransitionTable":          "test oracle: the paper's Figure 2 transition table",
	"baseline.NaiveDeanonymize":         "test oracle: the encrypted-list strawman's round trip",

	// Hooks that tests use to build or inspect state.
	"anonymizer.NewRegistration":         "test hook: a registration without a server",
	"anonymizer.WithLogSegmentBytes":     "test hook: small log segments to force rotation",
	"anonymizer.DurableStore.IsReplica":  "test hook: a follower's replica flag",
	"anonymizer.Server.ReduceCacheStats": "test hook: reduce-cache hit and miss counters",
	"tenant.FromJSON":                    "test hook: a registry from inline JSON",
	"leakcheck.Main":                     "test hook: the goroutine-leak TestMain",

	// Public through a facade alias (rc.Simulation), shown by a root Example.
	"trace.Simulation.Step": "public API: advances the fleet in Example_fleetMonitoring",

	// Called through container/heap's interface, never by name.
	"roadnet.pq.Less": "heap.Interface method",

	// The access-control API's listing, kept until the policy is reworked.
	"accessctl.Policy.Requesters": "awaits the access-control rework",
}

// TestEveryExportIsReferenced keeps the internal packages free of dead
// exports: every exported identifier declared under internal/ must appear
// in non-test code of either module (benchmark/ included) somewhere other
// than its own declaration, or be listed in unreferencedExports. A listed
// identifier that gains a use fails too, so the list cannot go stale. A
// use is any identifier of the same name: the rule needs no type checker,
// and it errs towards keeping an export.
func TestEveryExportIsReferenced(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	idents := map[string]int{} // every identifier in non-test code, declarations included

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(p), "internal/") {
			return nil
		}
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				decls = append(decls, decl{key: f.Name.Name + "." + key, name: id.Name, pos: fset.Position(id.Pos())})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name)
				} else {
					add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name)
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
	if len(decls) == 0 {
		t.Fatal("no exported identifiers found under internal/")
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := idents[d.name] > 1
		reason, listed := unreferencedExports[d.key]
		switch {
		case !used && !listed:
			t.Errorf("%s: %s is exported but no non-test code uses it; delete or unexport it, or list it in unreferencedExports with a reason",
				d.pos, d.key)
		case used && listed:
			t.Errorf("%s: %s is listed in unreferencedExports (%s) but non-test code now uses it; drop the entry",
				d.pos, d.key, reason)
		}
	}
	for key := range unreferencedExports {
		if !declared[key] {
			t.Errorf("unreferencedExports lists %s, which is not an exported identifier under internal/", key)
		}
	}
}

// recvName is the type name of a method receiver, without the pointer.
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
