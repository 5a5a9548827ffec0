package load

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestIncludeInBuild(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"no constraint", "package p\n", true},
		{"race only", "//go:build race\n\npackage p\n", false},
		{"not race", "//go:build !race\n\npackage p\n", true},
		{"host os", "//go:build " + runtime.GOOS + "\n\npackage p\n", true},
		{"other os", "//go:build plan9 && !" + runtime.GOOS + "\n\npackage p\n", false},
		{"custom tag", "//go:build sometag\n\npackage p\n", false},
		{"negated custom", "//go:build !sometag\n\npackage p\n", true},
		{"release tag", "//go:build go1.21\n\npackage p\n", true},
		// A //go:build-looking comment after the package clause is a
		// plain comment, not a constraint.
		{"after package clause", "package p\n\n//go:build race\nvar X int\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "x.go", tc.src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if got := includeInBuild(f); got != tc.want {
				t.Errorf("includeInBuild(%q) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

// TestLoadSkipsNestedModules checks "./..." stops at a directory with
// its own go.mod, as the go command does: a nested module is a
// different build, with its own dependencies and replace directives.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("a/a.go", "package a\n")
	write("nested/go.mod", "module example.com/nested\n\ngo 1.22\n")
	write("nested/n.go", "package nested\n")
	write("nested/sub/s.go", "package sub\n")

	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if len(paths) != 1 || paths[0] != "example.com/m/a" {
		t.Fatalf("loaded %v, want only example.com/m/a", paths)
	}
}
