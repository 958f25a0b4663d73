package reversecloak_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesImportOnlyPublicAPI keeps every root Example copyable by an
// external user: none may import a package under internal/. Figure one is
// the one exception, since it draws the paper's internal Figure 1 map with
// the ASCII renderer.
func TestExamplesImportOnlyPublicAPI(t *testing.T) {
	files, err := filepath.Glob("example_*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if path == "example_figure1_test.go" {
			continue
		}
		checked++
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
	if checked == 0 {
		t.Fatal("no examples found")
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
