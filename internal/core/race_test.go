//go:build race

package core

// The race detector makes sync.Pool drop a share of its Puts at
// random, so pooled-buffer allocation counts are not stable under it.
func init() { raceEnabled = true }
