//go:build goexperiment.synctest

// go.mod's go line defaults asynctimerchan=1, under which synctest.Run
// panics; this test binary alone opts out.
//go:debug asynctimerchan=0

package netsim

import (
	"testing"
	"testing/synctest"
)

// syntheticClock reports whether bubble runs its body on synctest's
// clock.
const syntheticClock = true

// bubble runs f, a body of test t, under synctest.Run: f and every
// goroutine it starts share a synthetic clock that jumps ahead whenever
// all of them are durably blocked, so a deadline or timeout is an exact
// duration and costs no wall time. Everything f uses that blocks —
// networks, listeners, conns — must be made inside f, and f
// must close it all before returning: Run waits for every goroutine of
// the bubble. Two limits:
//   - a goroutine blocked on a sync.Mutex or on real I/O is not durably
//     blocked, so tests on loopback TCP stay on the wall clock;
//   - Go 1.25 replaces synctest.Run with synctest.Test(t, f), and this
//     is the one place to change.
func bubble(t *testing.T, f func()) {
	t.Helper()
	synctest.Run(f)
}

// settle returns once every other goroutine of the bubble is durably
// blocked or done. Only a bubble's body may call it.
func settle() { synctest.Wait() }
