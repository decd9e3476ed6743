//go:build race

package crawler

// The race detector makes sync.Pool drop a share of what is put back,
// so a test that counts allocations over pooled buffers checks a
// looser bound under it.
func init() { raceEnabled = true }
