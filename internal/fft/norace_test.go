//go:build !race

package fft

// raceEnabled is false in normal builds; see race_test.go.
const raceEnabled = false
