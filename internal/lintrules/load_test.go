package lintrules

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// A `go list` whose output does not decode must not outlive goList: the
// child is killed and reaped on that error path, not left blocked.
func TestGoListReapsChildOnDecodeError(t *testing.T) {
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "pid")
	script := "#!/bin/sh\necho $$ > " + pidFile + "\nprintf '{x'\nexec sleep 5\n"
	if err := os.WriteFile(filepath.Join(dir, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))

	_, err := goList([]string{"./..."})
	b, rerr := os.ReadFile(pidFile)
	if rerr != nil {
		t.Fatalf("fake go never ran: %v", rerr)
	}
	pid, perr := strconv.Atoi(strings.TrimSpace(string(b)))
	if perr != nil {
		t.Fatalf("pid file %q: %v", b, perr)
	}
	t.Cleanup(func() { syscall.Kill(pid, syscall.SIGKILL) })

	if err == nil {
		t.Fatal("goList accepted undecodable output")
	}
	if kerr := syscall.Kill(pid, 0); !errors.Is(kerr, syscall.ESRCH) {
		t.Fatalf("go list child %d still exists after goList returned (kill -0: %v)", pid, kerr)
	}
}
