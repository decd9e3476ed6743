//go:build !goexperiment.synctest

package netsim

import (
	"runtime"
	"testing"
)

// syntheticClock reports whether bubble runs its body on synctest's
// clock; see bubble_synctest_test.go.
const syntheticClock = false

// bubble runs f, a body of test t, on the wall clock. Built with
// GOEXPERIMENT=synctest it runs f in a synctest bubble instead
// (bubble_synctest_test.go), so one test body runs on both clocks.
func bubble(t *testing.T, f func()) {
	t.Helper()
	f()
}

// settle lets the goroutines f started run. On synctest's clock it
// returns once every one of them is durably blocked or done.
func settle() { runtime.Gosched() }
