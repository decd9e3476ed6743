// Package leakcheck fails a package's tests when a goroutine they
// started outlives them. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines the tests stopped to
// finish exiting: a closed listener's accept loop or a hung-up conn's
// server returns shortly after the test that closed it.
const settle = 5 * time.Second

// Main runs m's tests and exits with their status. When they pass but
// goroutines that were not running before them are still running after
// settle, it prints those goroutines' stacks and exits with status 1. A
// fuzzing run is not checked: its workers outlive the inputs by design.
func Main(m *testing.M) {
	before := make(map[string]bool)
	for _, g := range goroutines() {
		before[header(g)] = true
	}
	code := m.Run()
	if code == 0 && !fuzzing() {
		var leaked [][]byte
		for deadline := time.Now().Add(settle); ; time.Sleep(10 * time.Millisecond) {
			leaked = leaked[:0]
			for _, g := range goroutines() {
				if !before[header(g)] {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests by %v:\n\n%s\n",
				len(leaked), settle, bytes.Join(leaked, []byte("\n\n")))
			code = 1
		}
	}
	os.Exit(code)
}

// goroutines returns the stack of every goroutine, one element each.
func goroutines() [][]byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(bytes.TrimSpace(buf[:n]), []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// header returns a stack's "goroutine N" prefix: goroutine IDs are never
// reused, so it names one goroutine for the life of the process.
func header(stack []byte) string {
	if i := bytes.IndexByte(stack, '['); i > 0 {
		return string(stack[:i])
	}
	return string(stack)
}

// fuzzing reports whether the run was asked to fuzz.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}
