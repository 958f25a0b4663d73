// Package leakcheck fails a test binary whose tests leave goroutines
// behind. Only tests import it: a package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits. When they pass, every goroutine with a
// frame in this module (its creator counts) must exit within 2 s, or the
// binary fails and prints their stacks.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := moduleGoroutines(2 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// moduleGoroutines polls for up to wait until no goroutine but the
// caller's has a frame in this module, and returns the stacks of those
// still running then.
func moduleGoroutines(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		// The first stack is the calling goroutine's own.
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			if strings.Contains(g, "github.com/reversecloak/reversecloak") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
