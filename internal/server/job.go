// Package server is the campaign service behind cmd/comfortd: a
// supervised, kill-resistant job queue that runs fuzzing campaigns as
// long-lived, resumable jobs. Job specs, statuses and final accounting
// live on disk as atomically-written JSON (temp + rename, the
// campaign.State discipline), so the full queue is reconstructible from
// the data directory alone — a server killed with SIGKILL at any instant
// restarts with every job's accounting intact and every unfinished job
// auto-resuming from its last checkpoint. The supervisor (supervisor.go)
// schedules queued jobs over a shared execution pool, isolates each run
// behind a recover() chokepoint, retries crashed jobs with exponential
// backoff, and quarantines jobs that exhaust their retries with the last
// error preserved. Progress streams to HTTP subscribers through bounded
// drop-oldest buffers (hub.go), so a slow or dead client can never stall
// a campaign.
package server

import (
	"encoding/json"
	"fmt"
	"sort"

	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// Spec is a submitted job: the finding-relevant campaign parameters plus
// throughput knobs. It is persisted verbatim at submission and never
// rewritten, so a restart rebuilds exactly the submitted campaign (the
// checkpoint fingerprint guards the finding-relevant subset).
type Spec struct {
	Fuzzer string `json:"fuzzer"`
	Cases  int    `json:"cases"`
	Seed   int64  `json:"seed"`
	Fuel   int64  `json:"fuel,omitempty"`
	// Priority orders dispatch: higher runs first, ties break by
	// submission order. Range [-100, 100]; 0 is the default.
	Priority int `json:"priority,omitempty"`
	// TestbedLimit restricts the campaign to the first N catalog testbeds
	// (a deterministic subset); 0 means the full catalog. Small limits are
	// the testing/CI shape.
	TestbedLimit int `json:"testbed_limit,omitempty"`
	// Workers is the job's own scheduler-goroutine count; the shared
	// execution gate bounds how many of them run interpreters at once
	// across all jobs. 0 means the campaign default.
	Workers   int  `json:"workers,omitempty"`
	GenShards int  `json:"gen_shards,omitempty"`
	Reduce    bool `json:"reduce_witnesses,omitempty"`
	// DisableDedup is the Figure-6 ablation, mirroring campaign.Config.
	DisableDedup bool `json:"disable_dedup,omitempty"`
	// CheckpointEvery is the job's checkpoint cadence in cases; 0 means
	// the campaign default (256).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Faults is a faultinject spec string (testing/CI soak): injected
	// evaluator panics and hangs surface as findings, kill points make the
	// campaign die after the n-th checkpoint write — which the supervisor
	// treats exactly like a crashed job and auto-resumes.
	Faults string `json:"faults,omitempty"`
}

// Validate rejects malformed specs with an actionable message.
func (sp *Spec) Validate() error {
	if _, ok := fuzzers.ByName(sp.Fuzzer); !ok {
		return fmt.Errorf("unknown fuzzer %q", sp.Fuzzer)
	}
	if sp.Cases <= 0 {
		return fmt.Errorf("cases must be positive, got %d", sp.Cases)
	}
	if sp.Priority < -100 || sp.Priority > 100 {
		return fmt.Errorf("priority %d outside [-100, 100]", sp.Priority)
	}
	if sp.TestbedLimit < 0 || sp.TestbedLimit > len(engines.Testbeds()) {
		return fmt.Errorf("testbed_limit %d outside [0, %d]", sp.TestbedLimit, len(engines.Testbeds()))
	}
	if sp.Workers < 0 || sp.GenShards < 0 || sp.CheckpointEvery < 0 || sp.Fuel < 0 {
		return fmt.Errorf("workers/gen_shards/checkpoint_every/fuel must be non-negative")
	}
	if sp.Faults != "" {
		if _, err := faultinject.Parse(sp.Faults); err != nil {
			return err
		}
	}
	return nil
}

// testbeds resolves the spec's testbed subset.
func (sp *Spec) testbeds() []engines.Testbed {
	all := engines.Testbeds()
	if sp.TestbedLimit > 0 && sp.TestbedLimit < len(all) {
		return all[:sp.TestbedLimit]
	}
	return all
}

// Job states. The lifecycle is
//
//	queued → running → done
//	                 ↘ waiting (backoff) → queued        (bounded retries)
//	                 ↘ quarantined                       (retries exhausted
//	                                                      or permanent error)
//	queued/waiting/running → cancelled                   (operator request)
//	running → interrupted                                (graceful drain)
//
// and on startup every non-terminal state — including running, which only
// a crash can leave behind — collapses back to queued, so unfinished work
// auto-resumes from its checkpoint.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateWaiting     = "waiting"
	StateDone        = "done"
	StateQuarantined = "quarantined"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// terminalState reports whether a state never transitions again.
func terminalState(s string) bool {
	return s == StateDone || s == StateQuarantined || s == StateCancelled
}

// Status is a job's supervisor-visible state, persisted atomically on
// every transition. CasesDone/Findings are live in the API and refreshed
// on transitions in the file; the authoritative accounting position is
// the job's checkpoint.
type Status struct {
	ID         string `json:"id"`
	Seq        int    `json:"seq"`
	State      string `json:"state"`
	Retries    int    `json:"retries,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	CasesDone  int    `json:"cases_done"`
	CasesTotal int    `json:"cases_total"`
	Findings   int    `json:"findings,omitempty"`
	// NextRetryMS is the backoff delay scheduled when State is waiting.
	NextRetryMS int64 `json:"next_retry_ms,omitempty"`
	// UpdatedAt is wall-clock metadata (RFC3339) stamped by the injected
	// clock; empty when the supervisor runs clock-free (tests).
	UpdatedAt string `json:"updated_at,omitempty"`
	// Instance/Epoch record which instance last ran the job and under
	// which fencing epoch — multi-instance provenance (see lease.go).
	Instance string `json:"instance,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`
}

// FindingRecord is one finding in a job's final accounting, by catalog
// defect ID.
type FindingRecord struct {
	DefectID string   `json:"defect_id"`
	Verdict  string   `json:"verdict"`
	Engine   string   `json:"engine"`
	Features []string `json:"features,omitempty"`
	Flags    []string `json:"flags,omitempty"`
}

// Accounting is a completed job's deterministic result summary — the
// byte-identical half of the server's crash-recovery contract. It carries
// exactly the accounted (seed-determined) fields of campaign.Result;
// diagnostic counters like cache hits, which resuming legitimately
// changes, are deliberately excluded so the serialised accounting of a
// killed-and-resumed job is byte-identical to an uninterrupted run's.
type Accounting struct {
	Fuzzer               string          `json:"fuzzer"`
	CasesRun             int             `json:"cases_run"`
	Executed             int             `json:"executed"`
	Verdicts             map[string]int  `json:"verdicts"`
	Found                []FindingRecord `json:"found"`
	Suppressed           []FindingRecord `json:"suppressed,omitempty"`
	DuplicatesFiltered   int             `json:"duplicates_filtered"`
	UnattributedFindings int             `json:"unattributed_findings"`
	EarlyErrorCases      int             `json:"early_error_cases"`
	FlaggedNondet        int64           `json:"flagged_nondet"`
	FeatureCounts        map[string]int  `json:"feature_counts,omitempty"`
	FeaturesSeen         int             `json:"features_seen,omitempty"`
}

// accountingOf distils a campaign result into its deterministic
// accounting. Findings are rendered in defect-ID order and map keys are
// sorted by encoding/json, so equal accounting marshals to equal bytes.
func accountingOf(res *campaign.Result) *Accounting {
	a := &Accounting{
		Fuzzer:               res.FuzzerName,
		CasesRun:             res.CasesRun,
		Executed:             res.Executed,
		Verdicts:             map[string]int{},
		Found:                findingRecords(res.Found),
		Suppressed:           findingRecords(res.SuppressedNondet),
		DuplicatesFiltered:   res.DuplicatesFiltered,
		UnattributedFindings: res.UnattributedFindings,
		EarlyErrorCases:      res.EarlyErrorCases,
		FlaggedNondet:        res.FlaggedNondet,
		FeaturesSeen:         res.FeaturesSeen,
	}
	for v, n := range res.Verdicts { //detlint:order — string-keyed map output (JSON-sorted)
		a.Verdicts[v.String()] = n
	}
	if res.FeatureCounts != nil {
		a.FeatureCounts = map[string]int{}
		for name, n := range res.FeatureCounts { //detlint:order — string-keyed map output (JSON-sorted)
			a.FeatureCounts[name] = n
		}
	}
	return a
}

// marshalAccounting renders the canonical result.json bytes: indented
// JSON plus a trailing newline. Byte-identity of accounting is defined
// over this encoding.
func marshalAccounting(a *Accounting) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func findingRecords(m map[string]*campaign.Finding) []FindingRecord {
	ids := make([]string, 0, len(m))
	for id := range m { //detlint:order — sorted before use below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]FindingRecord, 0, len(ids))
	for _, id := range ids {
		f := m[id]
		out = append(out, FindingRecord{
			DefectID: id, Verdict: f.Verdict.String(), Engine: f.Engine,
			Features: f.Features, Flags: f.Flags,
		})
	}
	return out
}
