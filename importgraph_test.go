package minup_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// serverStack lists the internal packages that make up minupd's serving
// stack. The library package must link none of them: it exposes the
// paper's API, and the binaries that serve it import these directly.
var serverStack = []string{
	"minup/internal/catalog",
	"minup/internal/cluster",
	"minup/internal/wal",
	"minup/internal/bus",
	"minup/internal/workload",
	"minup/internal/frontend",
}

// TestLibraryImportGraph runs `go list -deps minup` and fails if the
// library's transitive imports reach into the serving stack.
func TestLibraryImportGraph(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command available to list the import graph")
		}
	}
	out, err := exec.Command(goBin, "list", "-deps", "minup").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps minup: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		for _, banned := range serverStack {
			if dep == banned || strings.HasPrefix(dep, banned+"/") {
				t.Errorf("package minup depends on %s; the serving stack must stay out of the library's import graph", dep)
			}
		}
	}
}
