//go:build race

package perfi

// See race_off_test.go.
const raceEnabled = true
