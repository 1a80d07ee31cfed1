//go:build race

package fft

// raceEnabled reports a race-detector build, where sync.Pool drops a share
// of the buffers put back, so pooled paths allocate by design.
const raceEnabled = true
