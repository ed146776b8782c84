package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadRecompilesXTestDependencies: an external test package that
// imports a package which imports the package under test sees that
// dependency compiled against the augmented package, as go test builds
// it — so passing the package's types through the dependency typechecks.
func TestLoadRecompilesXTestDependencies(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":             "module example.com/m\n\ngo 1.22\n",
		"p/p.go":             "package p\n\ntype T struct{ N int }\n",
		"p/internal_test.go": "package p\n\nfunc helper() T { return T{} }\n",
		"q/q.go":             "package q\n\nimport \"example.com/m/p\"\n\nfunc Use(t p.T) int { return t.N }\n",
		"p/x_test.go":        "package p_test\n\nimport (\n\t\"example.com/m/p\"\n\t\"example.com/m/q\"\n)\n\nvar _ = q.Use(p.T{N: 1})\n",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(token.NewFileSet(), dir, []string{"./..."}, true)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var xtest bool
	for _, p := range pkgs {
		xtest = xtest || p.Path == "example.com/m/p_test"
	}
	if !xtest {
		t.Fatal("the external test package was not loaded")
	}
}
