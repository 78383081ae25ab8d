package difftest

import (
	"testing"

	"comfort/internal/engines"
)

// entry builds a synthetic ExecEntry: Classify is pure, so these tests run
// no testbed at all.
func entry(engine, version string, strict bool, r engines.ExecResult) ExecEntry {
	return ExecEntry{
		Testbed: engines.Testbed{
			Version: engines.Version{Engine: engine, Name: version, Build: version},
			Strict:  strict,
		},
		Result: r,
	}
}

func pass(out string) engines.ExecResult {
	return engines.ExecResult{Outcome: engines.OutcomePass, Output: out, FuelUsed: 100}
}

func TestClassifyTable(t *testing.T) {
	parseErr := engines.ExecResult{Outcome: engines.OutcomeParseError, ErrName: "SyntaxError"}
	crash := engines.ExecResult{Outcome: engines.OutcomeCrash, ErrName: "crash", FuelUsed: 50}
	timeout := engines.ExecResult{Outcome: engines.OutcomeTimeout, ErrName: "timeout", FuelUsed: 1000}

	cases := []struct {
		name         string
		entries      []ExecEntry
		want         Verdict
		wantDeviants []string // engine names, in deviation order
	}{
		{
			name: "unanimous pass",
			entries: []ExecEntry{
				entry("A", "1", false, pass("1")),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("1")),
			},
			want: VerdictPass,
		},
		{
			name: "all reject is invalid",
			entries: []ExecEntry{
				entry("A", "1", false, parseErr),
				entry("B", "1", false, parseErr),
			},
			want: VerdictInvalid,
		},
		{
			name: "parse minority is deviant",
			entries: []ExecEntry{
				entry("A", "1", false, parseErr),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("1")),
			},
			want:         VerdictParseInconsistent,
			wantDeviants: []string{"A"},
		},
		{
			name: "crash outranks output differences",
			entries: []ExecEntry{
				entry("A", "1", false, crash),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("2")),
			},
			want:         VerdictCrash,
			wantDeviants: []string{"A"},
		},
		{
			name: "2x fuel rule flags the slow engine",
			entries: []ExecEntry{
				entry("A", "1", false, timeout),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("1")),
			},
			want:         VerdictTimeout,
			wantDeviants: []string{"A"},
		},
		{
			name: "timeout within 2x of finishers is not deviant",
			entries: []ExecEntry{
				entry("A", "1", false, engines.ExecResult{
					Outcome: engines.OutcomeTimeout, ErrName: "timeout", FuelUsed: 150,
				}),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("1")),
			},
			want:         VerdictWrongOutput, // falls through to majority voting
			wantDeviants: []string{"A"},
		},
		{
			name: "all timeout is ignored",
			entries: []ExecEntry{
				entry("A", "1", false, timeout),
				entry("B", "1", false, timeout),
			},
			want: VerdictAllTimeout,
		},
		{
			name: "majority vote isolates the odd output",
			entries: []ExecEntry{
				entry("A", "1", false, pass("1")),
				entry("B", "1", false, pass("1")),
				entry("C", "1", false, pass("2")),
			},
			want:         VerdictWrongOutput,
			wantDeviants: []string{"C"},
		},
		{
			name: "perfect split is inconclusive",
			entries: []ExecEntry{
				entry("A", "1", false, pass("1")),
				entry("B", "1", false, pass("2")),
			},
			want: VerdictInconclusive,
		},
		{
			name: "strict and normal pools vote separately",
			entries: []ExecEntry{
				entry("A", "1", false, pass("sloppy")),
				entry("B", "1", false, pass("sloppy")),
				entry("A", "1", true, pass("strict")),
				entry("B", "1", true, pass("strict")),
			},
			want: VerdictPass,
		},
		{
			name: "strict-pool deviant surfaces through the merge",
			entries: []ExecEntry{
				entry("A", "1", false, pass("1")),
				entry("B", "1", false, pass("1")),
				entry("A", "1", true, pass("1")),
				entry("B", "1", true, pass("1")),
				entry("C", "1", true, pass("2")),
			},
			want:         VerdictWrongOutput,
			wantDeviants: []string{"C"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr := Classify(tc.entries)
			if cr.Verdict != tc.want {
				t.Fatalf("verdict = %s, want %s", cr.Verdict, tc.want)
			}
			if len(cr.Deviations) != len(tc.wantDeviants) {
				t.Fatalf("deviations = %d, want %d (%+v)",
					len(cr.Deviations), len(tc.wantDeviants), cr.Deviations)
			}
			for i, want := range tc.wantDeviants {
				if got := cr.Deviations[i].Testbed.Version.Engine; got != want {
					t.Errorf("deviant[%d] = %s, want %s", i, got, want)
				}
			}
		})
	}
}
