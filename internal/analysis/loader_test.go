package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"xrtree/internal/analysis"
)

// TestPackagesNoMatchFatal pins the fix for xrvet's silent exit-0: `go
// list` reports a typo'd pattern only as a stderr warning with exit 0,
// and the loader used to turn that into an empty package set — an
// analyzer run over nothing that looked like a clean bill of health.
func TestPackagesNoMatchFatal(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := l.Packages([]string{"./nosuchdir/..."}); err == nil {
		t.Fatal("Packages matched nothing but returned no error")
	}
	if _, err := l.PackageDirs([]string{"./nosuchdir/..."}); err == nil {
		t.Fatal("PackageDirs matched nothing but returned no error")
	}
}

// TestBrokenImportFatal checks that a module whose package imports
// something unresolvable fails loading loudly instead of analyzing a
// partial package set.
func TestBrokenImportFatal(t *testing.T) {
	t.Setenv("GOPROXY", "off")
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module brokenmod\n\ngo 1.21\n",
		"a.go":   "package a\n\nimport _ \"no.such/pkg\"\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := analysis.NewLoader(dir); err == nil {
		t.Fatal("NewLoader succeeded on a module with an unresolvable import")
	}
}
