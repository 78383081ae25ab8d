package analyze

// ReferenceAnalyze is the old early-error pass (early_ref_test.go), for
// the external oracle test.
var ReferenceAnalyze = referenceAnalyze

// EarlyErrorCaseSources returns the sources of TestEarlyErrors' table.
func EarlyErrorCaseSources() []string {
	srcs := make([]string, len(earlyErrorCases))
	for i, tc := range earlyErrorCases {
		srcs[i] = tc.src
	}
	return srcs
}
