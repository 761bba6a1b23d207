//go:build race

package traffic

// The race detector instruments every memory access, which swamps what the
// timing tests measure.
func init() { raceEnabled = true }
