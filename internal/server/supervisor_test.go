package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"comfort/internal/atomicfile"
	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// instantSleep makes backoff waits return immediately (still honouring
// cancellation), so retry chains run at test speed.
func instantSleep(ctx context.Context, d time.Duration) bool {
	return ctx.Err() == nil
}

// recordingSleep captures every backoff delay the supervisor schedules.
type recordingSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordingSleep) sleep(ctx context.Context, d time.Duration) bool {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	return ctx.Err() == nil
}

func (r *recordingSleep) recorded() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.delays...)
}

// waitIdle polls until the supervisor has no runnable work, failing the
// test on timeout.
func waitIdle(t *testing.T, s *Supervisor) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !s.Idle() {
		if time.Now().After(deadline) {
			var states []string
			for _, st := range s.List() {
				states = append(states, fmt.Sprintf("%s=%s(%d/%d r%d %q)",
					st.ID, st.State, st.CasesDone, st.CasesTotal, st.Retries, st.LastError))
			}
			t.Fatalf("supervisor did not go idle: %s", strings.Join(states, " "))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// expectedAccounting runs the spec's campaign directly — no server, no
// faults, no interruptions — and returns the canonical result bytes the
// server must reproduce.
func expectedAccounting(t *testing.T, sp Spec) []byte {
	t.Helper()
	f, ok := fuzzers.ByName(sp.Fuzzer)
	if !ok {
		t.Fatalf("unknown fuzzer %q", sp.Fuzzer)
	}
	res := campaign.Run(campaign.Config{
		Fuzzer:          f,
		Testbeds:        sp.testbeds(),
		Cases:           sp.Cases,
		Seed:            sp.Seed,
		Fuel:            sp.Fuel,
		ReduceWitnesses: sp.Reduce,
	})
	data, err := atomicfile.Encode(accountingOf(res))
	if err != nil {
		t.Fatalf("marshal baseline accounting: %v", err)
	}
	return data
}

func testOptions(t *testing.T) Options {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Store:         store,
		PoolWorkers:   2,
		MaxActive:     3,
		Sleep:         instantSleep,
		ProgressEvery: 4,
	}
}

// TestServerCrashRecoveryOracle is the server-level kill oracle: three
// concurrent jobs — one of them carrying an injected kill plan that makes
// its campaign die over and over — while the whole supervisor is
// repeatedly "SIGKILLed" (no drain, no flush, no status writes) at
// varying points and restarted over the same data directory. After
// convergence every job's result.json must be byte-identical to an
// uninterrupted direct campaign run of the same spec.
func TestServerCrashRecoveryOracle(t *testing.T) {
	specs := []Spec{
		{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 6, CheckpointEvery: 8},
		{Fuzzer: "COMFORT", Cases: 40, Seed: 7, TestbedLimit: 6, CheckpointEvery: 8,
			Faults: "kill=1"},
		{Fuzzer: "COMFORT", Cases: 32, Seed: 11, TestbedLimit: 4, CheckpointEvery: 8},
	}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		// The kill plan shapes when the campaign dies, never what it finds:
		// the baseline is the same spec without the plan.
		clean := sp
		clean.Faults = ""
		want[i] = expectedAccounting(t, clean)
	}

	opt := testOptions(t)
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// Kill the server at increasing progress thresholds, restarting over
	// the same store each time; the final instance runs to convergence.
	thresholds := []int{8, 24, 48, 72}
	for round := 0; round < len(thresholds); round++ {
		deadline := time.Now().Add(2 * time.Minute)
		for {
			total := 0
			for _, st := range s.List() {
				total += st.CasesDone
			}
			if total >= thresholds[round] || s.Idle() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: never reached %d cases", round, thresholds[round])
			}
			time.Sleep(time.Millisecond)
		}
		s.kill()
		s, err = NewSupervisor(opt)
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
	}
	waitIdle(t, s)
	defer s.Shutdown()

	for i, id := range ids {
		st, ok := s.JobStatus(id)
		if !ok {
			t.Fatalf("job %s lost across restarts", id)
		}
		if st.State != StateDone {
			t.Errorf("job %s: state %s (%d/%d, retries %d, last error %q), want done",
				id, st.State, st.CasesDone, st.CasesTotal, st.Retries, st.LastError)
			continue
		}
		got := s.Accounting(id)
		if got == nil {
			t.Errorf("job %s: no result.json", id)
			continue
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("job %s: accounting diverged from uninterrupted baseline:\n--- want\n%s\n--- got\n%s",
				id, want[i], got)
		}
	}
}

// TestGracefulDrainResumesOnRestart pins the clean half of the shutdown
// contract: Shutdown checkpoints running work and marks it interrupted; a
// new supervisor over the same store re-queues it and completes it with
// baseline-identical accounting.
func TestGracefulDrainResumesOnRestart(t *testing.T) {
	sp := Spec{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 6, CheckpointEvery: 8}
	want := expectedAccounting(t, sp)

	opt := testOptions(t)
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then drain.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := s.JobStatus(st.ID)
		if cur.CasesDone > 0 || terminalState(cur.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()

	cur, _ := s.JobStatus(st.ID)
	if cur.State != StateInterrupted && cur.State != StateDone {
		t.Fatalf("after drain: state %s, want interrupted (or done)", cur.State)
	}
	if _, err := s.Submit(sp); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err=%v, want ErrDraining", err)
	}

	s2, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s2)
	defer s2.Shutdown()
	final, _ := s2.JobStatus(st.ID)
	if final.State != StateDone {
		t.Fatalf("after restart: state %s (%q), want done", final.State, final.LastError)
	}
	if got := s2.Accounting(st.ID); !bytes.Equal(got, want) {
		t.Fatalf("drained+resumed accounting diverged:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestRetryBackoffScheduleIsDeterministic drives the retry machinery
// through the test seam: a job whose every attempt fails without progress
// must wait exactly retryDelay(seq, attempt) before each retry and be
// quarantined — last error preserved — when the budget is spent.
func TestRetryBackoffScheduleIsDeterministic(t *testing.T) {
	rec := &recordingSleep{}
	opt := testOptions(t)
	opt.Sleep = rec.sleep
	opt.MaxRetries = 3
	opt.BackoffBase = time.Second
	opt.BackoffMax = time.Minute
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	s.runHook = func(j *Job) error { return errors.New("injected attempt failure") }

	st, err := s.Submit(Spec{Fuzzer: "COMFORT", Cases: 8, Seed: 2, TestbedLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)

	final, _ := s.JobStatus(st.ID)
	if final.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined", final.State)
	}
	if !strings.Contains(final.LastError, "injected attempt failure") ||
		!strings.Contains(final.LastError, "retries exhausted") {
		t.Fatalf("quarantine error not preserved/actionable: %q", final.LastError)
	}
	got := rec.recorded()
	if len(got) != opt.MaxRetries {
		t.Fatalf("recorded %d backoff waits %v, want %d", len(got), got, opt.MaxRetries)
	}
	for i, d := range got {
		want := retryDelay(opt.BackoffBase, opt.BackoffMax, st.Seq, i+1)
		if d != want {
			t.Errorf("attempt %d: slept %v, want %v", i+1, d, want)
		}
	}
	// The schedule itself must escalate: each base doubling dominates the
	// sub-base jitter.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("backoff not escalating: attempt %d slept %v after %v", i+1, got[i], got[i-1])
		}
	}
}

// TestRetryBudgetResetsOnProgress: attempts that advance the checkpoint
// must not burn the retry budget — a job killed more times than
// MaxRetries still completes as long as each life makes progress.
func TestRetryBudgetResetsOnProgress(t *testing.T) {
	opt := testOptions(t)
	opt.MaxRetries = 2
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	// kill=1 dies after every first checkpoint write: 40 cases at cadence 8
	// is 4 deaths — twice the retry budget — each with fresh progress.
	st, err := s.Submit(Spec{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 4,
		CheckpointEvery: 8, Faults: "kill=1"})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	final, _ := s.JobStatus(st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (retries %d, %q), want done", final.State, final.Retries, final.LastError)
	}
}

// TestQuarantineOnCorruptCheckpoint: an unreadable checkpoint is a
// permanent failure — no retry can fix the bytes — and the job is
// quarantined immediately with the load error preserved.
func TestQuarantineOnCorruptCheckpoint(t *testing.T) {
	opt := testOptions(t)
	sp := Spec{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 4, CheckpointEvery: 8}
	st := Status{ID: jobID(1), Seq: 1, State: StateQueued, CasesTotal: sp.Cases}
	if err := opt.Store.CreateJob(st, sp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opt.Store.CheckpointPath(st.ID), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	waitIdle(t, s)
	final, _ := s.JobStatus(st.ID)
	if final.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined", final.State)
	}
	if !strings.Contains(final.LastError, "checkpoint unreadable") {
		t.Fatalf("last error %q does not name the corrupt checkpoint", final.LastError)
	}
	if final.Retries != 0 {
		t.Fatalf("permanent failure consumed %d retries, want 0", final.Retries)
	}
}

// TestQuarantineOnFingerprintMismatch is satellite coverage for the
// actionable-diff surface in the job API: a checkpoint written by a
// different campaign quarantines the job, and the preserved error names
// exactly the diverging config fields.
func TestQuarantineOnFingerprintMismatch(t *testing.T) {
	opt := testOptions(t)
	sp := Spec{Fuzzer: "COMFORT", Cases: 40, Seed: 3, TestbedLimit: 4, CheckpointEvery: 8}
	st := Status{ID: jobID(1), Seq: 1, State: StateQueued, CasesTotal: sp.Cases}
	if err := opt.Store.CreateJob(st, sp); err != nil {
		t.Fatal(err)
	}
	// Plant a checkpoint from the same campaign shape but a different
	// seed, as a crashed run of a *different* job would have left behind.
	other := sp
	other.Seed = 2
	f, _ := fuzzers.ByName(other.Fuzzer)
	campaign.Run(campaign.Config{
		Fuzzer: f, Testbeds: other.testbeds(), Cases: other.Cases, Seed: other.Seed,
		CheckpointEvery: 8, Checkpoint: opt.Store.CheckpointPath(st.ID),
		Faults: faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}}),
	})
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	waitIdle(t, s)
	final, _ := s.JobStatus(st.ID)
	if final.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined", final.State)
	}
	if !strings.Contains(final.LastError, "seed: checkpoint has 2, config has 3") {
		t.Fatalf("quarantine error not actionable: %q", final.LastError)
	}
	if strings.Contains(final.LastError, "fuzzer:") {
		t.Fatalf("quarantine error names non-diverging fields: %q", final.LastError)
	}
}

// TestAdmissionControl: the backlog bound rejects submissions with a
// QueueFullError carrying a retry-after hint, and frees up as jobs leave
// the queue.
func TestAdmissionControl(t *testing.T) {
	opt := testOptions(t)
	opt.MaxActive = 1
	opt.QueueMax = 1
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	long := Spec{Fuzzer: "COMFORT", Cases: 100000, Seed: 2, TestbedLimit: 2}
	first, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first job to occupy the single active slot, so the
	// backlog accounting below is deterministic.
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
	second, err := s.Submit(long)
	if err != nil {
		t.Fatalf("backlog 0/1, submit rejected: %v", err)
	}
	_, err = s.Submit(long)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("backlog 1/1, err=%v, want QueueFullError", err)
	}
	if qf.RetryAfter <= 0 {
		t.Fatalf("QueueFullError carries no retry-after hint: %+v", qf)
	}
	// Cancelling the queued job frees the backlog slot.
	if err := s.CancelJob(second.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(long); err != nil {
		t.Fatalf("after cancel, submit rejected: %v", err)
	}
	if err := s.CancelJob(first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningJob: cancelling a running job drains its campaign,
// records the cancelled state with its accounted position, and keeps the
// checkpoint on disk.
func TestCancelRunningJob(t *testing.T) {
	opt := testOptions(t)
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	st, err := s.Submit(Spec{Fuzzer: "COMFORT", Cases: 100000, Seed: 2, TestbedLimit: 2,
		CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := s.JobStatus(st.ID)
		if cur.State == StateRunning && cur.CasesDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.CancelJob(st.ID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Minute)
	for {
		cur, _ := s.JobStatus(st.ID)
		if terminalState(cur.State) {
			if cur.State != StateCancelled {
				t.Fatalf("state %s, want cancelled", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed, state %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.CancelJob(st.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel: err=%v, want ErrTerminal", err)
	}
	if _, err := os.Stat(opt.Store.CheckpointPath(st.ID)); err != nil {
		t.Fatalf("cancelled job's checkpoint discarded: %v", err)
	}
}

func init() {
	// Compile-time guard: the test spec's TestbedLimit values must stay
	// within the engine catalog.
	if len(engines.Testbeds()) < 6 {
		panic("engine catalog shrank below the testbed limits used in server tests")
	}
}
