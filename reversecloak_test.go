package reversecloak_test

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	rc "github.com/reversecloak/reversecloak"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

// TestFacadeQuickstart runs the quick start of the package documentation
// and the README's "Library use" end to end through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	g, err := rc.SmallMap(seed(1))
	if err != nil {
		t.Fatalf("SmallMap: %v", err)
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: 3000, Seed: seed(2)})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	engine, err := rc.NewRGEEngine(g, sim.UsersOn)
	if err != nil {
		t.Fatalf("NewRGEEngine: %v", err)
	}
	ks, err := rc.AutoGenerateKeys(3)
	if err != nil {
		t.Fatalf("AutoGenerateKeys: %v", err)
	}
	user := rc.SegmentID(100)
	region, _, err := engine.Anonymize(rc.Request{
		UserSegment: user,
		Profile:     rc.DefaultProfile(),
		Keys:        ks.All(),
	})
	if errors.Is(err, rc.ErrCloakFailed) {
		// The random workload can make a particular segment infeasible;
		// pick another one.
		user = rc.SegmentID(200)
		region, _, err = engine.Anonymize(rc.Request{
			UserSegment: user,
			Profile:     rc.DefaultProfile(),
			Keys:        ks.All(),
		})
	}
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if !region.Contains(user) {
		t.Error("region must contain the user")
	}

	grant, err := ks.Grant(1)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	finer, err := engine.Deanonymize(region, grant, 1)
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}
	if finer.PrivacyLevel() != 1 {
		t.Errorf("privacy level = %d, want 1", finer.PrivacyLevel())
	}
	if len(finer.Segments) >= len(region.Segments) {
		t.Error("peeling must shrink the region")
	}

	full, err := ks.Grant(0)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := engine.Deanonymize(region, full, 0)
	if err != nil {
		t.Fatalf("full Deanonymize: %v", err)
	}
	if len(l0.Segments) != 1 || l0.Segments[0] != user {
		t.Errorf("L0 = %v, want [%d]", l0.Segments, user)
	}
}

// twoLevels is a two-level profile small enough for the 10x10 grid maps.
var twoLevels = rc.Profile{Levels: []rc.Level{{K: 6, L: 3}, {K: 12, L: 5}}}

func TestFacadeRPLE(t *testing.T) {
	g, err := rc.GridMap(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := rc.NewRPLEEngine(g, func(rc.SegmentID) int { return 2 }, 0)
	if err != nil {
		t.Fatalf("NewRPLEEngine: %v", err)
	}
	ks, err := rc.AutoGenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	region, _, err := engine.Anonymize(rc.Request{UserSegment: 40, Profile: twoLevels, Keys: ks.All()})
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	grant, err := ks.Grant(0)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := engine.Deanonymize(region, grant, 0)
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}
	if len(l0.Segments) != 1 || l0.Segments[0] != 40 {
		t.Errorf("L0 = %v", l0.Segments)
	}
}

func TestFacadeServerFlow(t *testing.T) {
	g, err := rc.GridMap(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rc.NewServer(map[rc.Algorithm]*rc.Engine{rc.RGE: engine})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	c, err := rc.DialServer(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	id, region, err := c.Anonymize(42, twoLevels, "RGE")
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if id == "" || region == nil {
		t.Fatal("missing registration")
	}
}

// TestExamplesImportOnlyPublicAPI keeps every example copyable by an
// external user: none may import a package under internal/.
func TestExamplesImportOnlyPublicAPI(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: import %s: %v", path, imp.Path.Value, err)
			}
			if strings.Contains(ipath, "/internal/") {
				t.Errorf("%s imports %s; examples may use only the public API", path, ipath)
			}
		}
	}
}

// TestEveryCommandHasTests keeps every program under cmd/ checked: each
// main package there needs at least one _test.go file.
func TestEveryCommandHasTests(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	commands := 0
	for _, dir := range dirs {
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		isMain, hasTest := false, false
		for _, path := range srcs {
			if strings.HasSuffix(path, "_test.go") {
				hasTest = true
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			isMain = isMain || f.Name.Name == "main"
		}
		if !isMain {
			continue
		}
		commands++
		if !hasTest {
			t.Errorf("%s is a main package without a _test.go file", dir)
		}
	}
	if commands == 0 {
		t.Fatal("no commands found under cmd/")
	}
}
