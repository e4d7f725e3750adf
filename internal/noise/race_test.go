//go:build race

package noise_test

// The race detector makes sync.Pool drop a random share of what it is
// given and instruments every allocation, so allocation bounds do not
// hold under it.
func init() { raceDetector = true }
