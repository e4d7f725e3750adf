package noise

// AnalyzeOracle is the sequential test oracle (oracle_test.go) for the
// noise_test equivalence suites.
var AnalyzeOracle = analyzeOracle

// EventCap exposes Budget's folded event ceiling to the budget tests.
func EventCap(b Budget) uint64 { return b.eventCap() }
