//go:build !race

package perfi

// raceEnabled reports whether the test binary was built with -race, under
// which the whole-campaign oracle would run several minutes.
const raceEnabled = false
