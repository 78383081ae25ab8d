package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comfort/internal/atomicfile"
)

func newTestServer(t *testing.T, opt Options) (*Supervisor, *httptest.Server) {
	t.Helper()
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestHandlerTable walks the API surface: valid and malformed
// submissions, status, list, cancel, health.
func TestHandlerTable(t *testing.T) {
	opt := testOptions(t)
	opt.MaxActive = 1
	_, ts := newTestServer(t, opt)

	oversize := `{"fuzzer":"COMFORT","cases":5,"faults":"` + strings.Repeat("x", MaxSpecBytes) + `"}`
	submit := []struct {
		name     string
		body     string
		wantCode int
		wantMsg  string // substring of the error message, when set
	}{
		{"valid", `{"fuzzer":"COMFORT","cases":20,"seed":2,"testbed_limit":2}`, http.StatusAccepted, ""},
		{"malformed json", `{"fuzzer":`, http.StatusBadRequest, ""},
		{"unknown field", `{"fuzzer":"COMFORT","cases":5,"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"removed evaluator knob", `{"fuzzer":"COMFORT","cases":5,"disable_compile":true}`, http.StatusBadRequest, "disable_compile"},
		{"unknown fuzzer", `{"fuzzer":"NOPE","cases":5}`, http.StatusBadRequest, ""},
		{"zero cases", `{"fuzzer":"COMFORT","cases":0}`, http.StatusBadRequest, ""},
		{"negative knob", `{"fuzzer":"COMFORT","cases":5,"workers":-1}`, http.StatusBadRequest, ""},
		{"workers over bound", `{"fuzzer":"COMFORT","cases":5,"workers":20000000}`, http.StatusBadRequest, "at most 1024"},
		{"gen_shards over bound", `{"fuzzer":"COMFORT","cases":5,"gen_shards":20000000}`, http.StatusBadRequest, "at most 1024"},
		{"bad fault spec", `{"fuzzer":"COMFORT","cases":5,"faults":"wat=1"}`, http.StatusBadRequest, ""},
		{"testbed limit too large", `{"fuzzer":"COMFORT","cases":5,"testbed_limit":100000}`, http.StatusBadRequest, ""},
		{"oversize body", oversize, http.StatusRequestEntityTooLarge, "exceeds"},
	}
	var created Status
	for _, tc := range submit {
		resp := postJSON(t, ts.URL+"/jobs", tc.body)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("POST /jobs [%s]: code %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
		if tc.wantCode == http.StatusAccepted {
			decodeBody(t, resp, &created)
			if created.ID == "" || created.State != StateQueued && created.State != StateRunning {
				t.Errorf("POST /jobs [%s]: implausible created status %+v", tc.name, created)
			}
		} else {
			var e map[string]string
			decodeBody(t, resp, &e)
			if e["error"] == "" || !strings.Contains(e["error"], tc.wantMsg) {
				t.Errorf("POST /jobs [%s]: error %q does not name %q", tc.name, e["error"], tc.wantMsg)
			}
		}
	}
	// Only the valid submission reached the store.
	dirs, err := os.ReadDir(filepath.Join(opt.Store.Root(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0].Name() != created.ID {
		t.Fatalf("job directories after the submissions: %v, want only %s", dirs, created.ID)
	}

	// GET /jobs lists the one accepted job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Fatalf("GET /jobs: %+v, want exactly %s", list.Jobs, created.ID)
	}

	// GET /jobs/{id}: known and unknown.
	resp, err = http.Get(ts.URL + "/jobs/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var one struct {
		Status     Status          `json:"status"`
		Accounting json.RawMessage `json:"accounting"`
	}
	decodeBody(t, resp, &one)
	if one.Status.ID != created.ID {
		t.Fatalf("GET /jobs/{id}: got %+v", one.Status)
	}
	resp, err = http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: code %d, want 404", resp.StatusCode)
	}

	// Wait for completion; the status endpoint must then embed the
	// accounting document.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err = http.Get(ts.URL + "/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &one)
		if one.Status.State == StateDone {
			break
		}
		if terminalState(one.Status.State) || time.Now().After(deadline) {
			t.Fatalf("job ended in %s (%q), want done", one.Status.State, one.Status.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var acct Accounting
	if err := json.Unmarshal(one.Accounting, &acct); err != nil {
		t.Fatalf("done job's accounting not parseable: %v", err)
	}
	if acct.CasesRun != 20 {
		t.Fatalf("accounting cases_run %d, want 20", acct.CasesRun)
	}

	// Cancel on a terminal job is a conflict.
	resp = postJSON(t, ts.URL+"/jobs/"+created.ID+"/cancel", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: code %d, want 409", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs/job-999999/cancel", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: code %d, want 404", resp.StatusCode)
	}

	// Health reports per-state counts.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK   bool           `json:"ok"`
		Jobs map[string]int `json:"jobs"`
	}
	decodeBody(t, resp, &health)
	if !health.OK || health.Jobs[StateDone] != 1 {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestHandlerQueueFull pins the admission-control surface: a 503 with a
// Retry-After header, not a hung or dropped request.
func TestHandlerQueueFull(t *testing.T) {
	opt := testOptions(t)
	opt.MaxActive = 1
	opt.QueueMax = 1
	s, ts := newTestServer(t, opt)

	long := `{"fuzzer":"COMFORT","cases":100000,"seed":2,"testbed_limit":2}`
	resp := postJSON(t, ts.URL+"/jobs", long)
	var first Status
	decodeBody(t, resp, &first)
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s.JobStatus(first.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/jobs", long)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: code %d, want 202", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs", long)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-backlog submit: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After header")
	}
}

// TestHandlerStream reads the SSE feed of a short job end to end: samples
// must be well-formed, progress monotone, and the stream must end (EOF)
// with the terminal sample after the job completes.
func TestHandlerStream(t *testing.T) {
	opt := testOptions(t)
	_, ts := newTestServer(t, opt)

	resp := postJSON(t, ts.URL+"/jobs", `{"fuzzer":"COMFORT","cases":40,"seed":2,"testbed_limit":4}`)
	var created Status
	decodeBody(t, resp, &created)

	stream, err := http.Get(ts.URL + "/jobs/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var samples []Sample
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		var sample Sample
		if err := json.Unmarshal([]byte(payload), &sample); err != nil {
			t.Fatalf("bad sample %q: %v", payload, err)
		}
		if sample.JobID != created.ID {
			t.Fatalf("sample for %s on %s's stream", sample.JobID, created.ID)
		}
		samples = append(samples, sample)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("stream delivered no samples")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Done < samples[i-1].Done {
			t.Fatalf("progress regressed: %d after %d", samples[i].Done, samples[i-1].Done)
		}
	}
	if last := samples[len(samples)-1]; last.State != StateDone {
		t.Fatalf("stream ended on %+v, want terminal done sample", last)
	}

	// Streaming an unknown job is a 404, not a hung connection.
	resp404, err := http.Get(ts.URL + "/jobs/job-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("stream unknown job: code %d, want 404", resp404.StatusCode)
	}
}

// TestHandlerHealthz pins the operator surface for multi-instance
// stores: /healthz names the instance, its held-lease and self-fence
// counts, the quarantine count, and surfaces LoadJobs warnings — and a
// cancel of a job a live peer is running is a 409 naming the holder, not
// a silent success or a 500.
func TestHandlerHealthz(t *testing.T) {
	clk := newFakeClock()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A stray directory in the store produces a startup warning both
	// instances must surface.
	if err := os.MkdirAll(filepath.Join(store.Root(), "jobs", "not-a-job"), 0o755); err != nil {
		t.Fatal(err)
	}

	a, err := NewSupervisor(twoInstanceOptions(store, clk, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	created, err := a.Submit(Spec{Fuzzer: "COMFORT", Cases: 100000, Seed: 2, TestbedLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := a.JobStatus(created.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha's job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if a.LeasesHeld() != 1 {
		t.Fatalf("alpha holds %d leases, want 1", a.LeasesHeld())
	}

	// Beta serves the HTTP API over the same store; alpha's fresh lease
	// makes the job a read-only mirror there.
	_, ts := newTestServer(t, twoInstanceOptions(store, clk, "beta"))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK       bool           `json:"ok"`
		Jobs     map[string]int `json:"jobs"`
		Instance struct {
			ID          string `json:"id"`
			LeasesHeld  int    `json:"leases_held"`
			Fences      int64  `json:"fences"`
			Quarantined int    `json:"quarantined"`
		} `json:"instance"`
		StoreWarnings []string `json:"store_warnings"`
	}
	decodeBody(t, resp, &health)
	if !health.OK {
		t.Fatalf("healthz not ok: %+v", health)
	}
	if health.Instance.ID != "beta" || health.Instance.LeasesHeld != 0 ||
		health.Instance.Fences != 0 || health.Instance.Quarantined != 0 {
		t.Fatalf("instance section %+v, want beta with no leases, fences or quarantine", health.Instance)
	}
	if health.Jobs[StateRunning] != 1 {
		t.Fatalf("beta does not mirror the peer-run job: %+v", health.Jobs)
	}
	if len(health.StoreWarnings) != 1 || !strings.Contains(health.StoreWarnings[0], "not-a-job") {
		t.Fatalf("store warnings %v, want one naming not-a-job", health.StoreWarnings)
	}

	// Cancelling alpha's running job through beta names the live holder.
	resp = postJSON(t, ts.URL+"/jobs/"+created.ID+"/cancel", "")
	var e map[string]any
	code := resp.StatusCode
	decodeBody(t, resp, &e)
	if code != http.StatusConflict {
		t.Fatalf("peer-held cancel: code %d (%v), want 409", code, e)
	}
	if msg, _ := e["error"].(string); !strings.Contains(msg, "alpha") {
		t.Fatalf("409 does not name the holding instance: %v", e)
	}
	if err := a.CancelJob(created.ID); err != nil {
		t.Fatalf("holder's own cancel: %v", err)
	}
}

// TestStoreReconstruction unit-tests LoadJobs: sequence ordering, corrupt
// directories skipped with warnings, missing statuses rebuilt from specs.
func TestStoreReconstruction(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq int, state string) {
		sp := Spec{Fuzzer: "COMFORT", Cases: 10 * seq, Seed: int64(seq)}
		st := Status{ID: jobID(seq), Seq: seq, State: state, CasesTotal: sp.Cases}
		if err := store.CreateJob(st, sp); err != nil {
			t.Fatal(err)
		}
	}
	mk(3, StateDone)
	mk(1, StateRunning)
	mk(7, StateQueued)
	// A torn spec must be skipped with a warning, not kill the load.
	dir := store.jobDir(jobID(5))
	if err := writeAtomicSetup(dir, "spec.json", "{torn"); err != nil {
		t.Fatal(err)
	}
	// A kill between spec and first status write: status reconstructed.
	if err := writeAtomicSetup(store.jobDir(jobID(9)), "spec.json",
		`{"fuzzer":"COMFORT","cases":12,"seed":9}`); err != nil {
		t.Fatal(err)
	}

	jobs, maxSeq, warnings, err := store.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 9 {
		t.Fatalf("maxSeq %d, want 9", maxSeq)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], jobID(5)) {
		t.Fatalf("warnings %v, want one naming %s", warnings, jobID(5))
	}
	var order []string
	for _, rec := range jobs {
		order = append(order, fmt.Sprintf("%s:%s", rec.Status.ID, rec.Status.State))
	}
	want := []string{
		"job-000001:running", "job-000003:done", "job-000007:queued", "job-000009:queued",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("reconstructed %v, want %v", order, want)
	}
	if jobs[3].Status.CasesTotal != 12 {
		t.Fatalf("reconstructed status lost cases_total: %+v", jobs[3].Status)
	}
}

// TestLoadJobsRejectsNonCanonicalIDs: directories whose names parse to an
// existing job's sequence but are not its canonical ID (job-5, job-+5,
// job-0000005 beside job-000005) are skipped with a warning each, so one
// sequence never loads as several jobs.
func TestLoadJobsRejectsNonCanonicalIDs(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Fuzzer: "COMFORT", Cases: 10, Seed: 5}
	if err := store.CreateJob(Status{ID: jobID(5), Seq: 5, State: StateQueued, CasesTotal: sp.Cases}, sp); err != nil {
		t.Fatal(err)
	}
	aliases := []string{"job-5", "job-+5", "job-0000005"}
	for _, id := range aliases {
		if err := writeAtomicSetup(store.jobDir(id), "spec.json",
			`{"fuzzer":"COMFORT","cases":10,"seed":5}`); err != nil {
			t.Fatal(err)
		}
	}
	jobs, maxSeq, warnings, err := store.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Status.ID != jobID(5) || maxSeq != 5 {
		t.Fatalf("loaded %d jobs (first %+v), maxSeq %d; want only %s", len(jobs), jobs, maxSeq, jobID(5))
	}
	if len(warnings) != len(aliases) {
		t.Fatalf("warnings %v, want one per alias %v", warnings, aliases)
	}
	for _, id := range aliases {
		want := id + ": not a job directory"
		found := false
		for _, w := range warnings {
			found = found || strings.HasPrefix(w, want)
		}
		if !found {
			t.Errorf("no %q warning in %v", want, warnings)
		}
	}
}

func writeAtomicSetup(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.Replace(filepath.Join(dir, name), []byte(content))
}

// TestSampleKeys pins the JSON keys of an SSE progress sample, in order.
// The counters carry the checkpoint's snake_case keys (they are
// campaign.Progress's embedded campaign.Counters); the case position and
// the accounted counts keep their Go field names.
func TestSampleKeys(t *testing.T) {
	data, err := json.Marshal(Sample{JobID: "job-000001", State: StateRunning})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"job_id", "state", "Done", "Total",
		"cache_hits", "cache_misses", "cache_evictions", "compiled", "fallback",
		"ic_hits", "ic_misses", "ic_mega", "analyzed", "early_error_skips",
		"panics", "wall_timeouts", "checkpoints", "checkpoint_failures",
		"FlaggedNondet", "FeaturesSeen",
	}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("sample keys:\n got %v\nwant %v", keys, want)
	}
}
