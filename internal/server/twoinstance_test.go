package server

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a shared, manually-advanced clock: leases expire only
// when a test says time passed, so takeover timing is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0).UTC()}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const testLeaseTTL = 10 * time.Second

// twoInstanceOptions configures one member of a shared-store pair: a
// fake shared clock, an hour-long heartbeat (the background loop stays
// parked; tests drive maintain() directly), and instant backoff sleeps.
func twoInstanceOptions(store *Store, clk *fakeClock, id string) Options {
	return Options{
		Store:         store,
		InstanceID:    id,
		LeaseTTL:      testLeaseTTL,
		Heartbeat:     time.Hour,
		PoolWorkers:   2,
		MaxActive:     3,
		Sleep:         instantSleep,
		ProgressEvery: 4,
		Clock:         clk.Now,
	}
}

// expireDeadLeases advances the shared clock past the lease TTL in
// sub-TTL steps, renewing every live instance's leases between steps —
// so dead instances' claims expire while live holders never miss a
// renewal (exactly what real heartbeats do, compressed).
func expireDeadLeases(clk *fakeClock, live ...*Supervisor) {
	for i := 0; i < 2; i++ {
		clk.Advance(testLeaseTTL/2 + time.Second)
		for _, s := range live {
			s.maintain()
		}
	}
}

// TestTwoInstanceCrashRecoveryOracle is the multi-instance half of the
// crash-recovery contract: two supervisors share one store and one
// clock, jobs are submitted to both, and instances are killed (SIGKILL
// emulation: no drain, no flush, leases left to rot) and restarted in
// alternating order at escalating progress thresholds, with peers taking
// over expired claims in between. After convergence every job's
// result.json must be byte-identical to an uninterrupted direct campaign
// run, and no clean job may have burned a retry — a takeover resumes the
// checkpoint, it does not re-execute or double-account work. The
// StalledInstanceSelfFences subtest covers the other failure shape: a
// live-but-stalled instance (SIGSTOP emulation) whose lease expired
// mid-write must detect the peer's fencing epoch and refuse the write.
func TestTwoInstanceCrashRecoveryOracle(t *testing.T) {
	t.Run("KillRotation", func(t *testing.T) {
		specs := []Spec{
			{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 6, CheckpointEvery: 8},
			{Fuzzer: "COMFORT", Cases: 40, Seed: 7, TestbedLimit: 6, CheckpointEvery: 8,
				Faults: "kill=1"},
			{Fuzzer: "COMFORT", Cases: 32, Seed: 11, TestbedLimit: 4, CheckpointEvery: 8},
		}
		want := make([][]byte, len(specs))
		for i, sp := range specs {
			clean := sp
			clean.Faults = ""
			want[i] = expectedAccounting(t, clean)
		}

		clk := newFakeClock()
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := map[string]Options{
			"alpha": twoInstanceOptions(store, clk, "alpha"),
			"beta":  twoInstanceOptions(store, clk, "beta"),
		}
		live := map[string]*Supervisor{}
		for name, o := range opts {
			if live[name], err = NewSupervisor(o); err != nil {
				t.Fatal(err)
			}
		}

		// Spread submissions across both instances; the job-directory
		// create arbitrates the shared sequence space, so IDs never
		// collide even though both instances start counting from 1.
		ids := make([]string, len(specs))
		for i, sp := range specs {
			owner := "alpha"
			if i%2 == 1 {
				owner = "beta"
			}
			st, err := live[owner].Submit(sp)
			if err != nil {
				t.Fatalf("submit %d to %s: %v", i, owner, err)
			}
			ids[i] = st.ID
		}
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate job ID %s: seq arbitration failed", id)
			}
			seen[id] = true
		}
		for _, s := range live {
			s.maintain() // adopt the peer's submissions
		}

		// progress sums each job's best-known case position across the
		// live instances.
		progress := func() int {
			total := 0
			for _, id := range ids {
				best := 0
				for _, s := range live {
					if st, ok := s.JobStatus(id); ok && st.CasesDone > best {
						best = st.CasesDone
					}
				}
				total += best
			}
			return total
		}
		// converged reports whether every job has finished: its result
		// is on disk and so is the terminal status complete() writes
		// after it.
		converged := func() bool {
			for _, id := range ids {
				if store.ReadResult(id) == nil {
					return false
				}
				if st, err := store.ReadStatus(id); err != nil || !terminalState(st.State) {
					return false
				}
			}
			return true
		}

		// Kill rotation: alpha, beta, alpha — each kill abandons leases
		// mid-flight, the survivor takes the work over after the TTL, and
		// the victim restarts under its old identity (so it may reclaim
		// any lease the survivor has not contested yet).
		victims := []string{"alpha", "beta", "alpha"}
		thresholds := []int{8, 24, 48}
		for round, victim := range victims {
			deadline := time.Now().Add(2 * time.Minute)
			for progress() < thresholds[round] && !converged() {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: never reached %d cases", round, thresholds[round])
				}
				time.Sleep(2 * time.Millisecond)
			}
			live[victim].kill()
			delete(live, victim)
			survivors := make([]*Supervisor, 0, len(live))
			for _, s := range live {
				survivors = append(survivors, s)
			}
			expireDeadLeases(clk, survivors...)
			restarted, err := NewSupervisor(opts[victim])
			if err != nil {
				t.Fatalf("round %d: restart %s: %v", round, victim, err)
			}
			live[victim] = restarted
			restarted.maintain()
		}

		// Converge: both instances live, heartbeats driven manually. The
		// slow clock creep expires any claim a dead incarnation left
		// behind without ever outrunning the live holders' renewals.
		deadline := time.Now().Add(2 * time.Minute)
		for !converged() {
			if time.Now().After(deadline) {
				for _, id := range ids {
					if st, err := store.ReadStatus(id); err == nil {
						t.Logf("%s: %s %d/%d r%d inst=%s e%d %q", id, st.State,
							st.CasesDone, st.CasesTotal, st.Retries, st.Instance, st.Epoch, st.LastError)
					}
				}
				t.Fatal("jobs never converged to completion")
			}
			clk.Advance(100 * time.Millisecond)
			for _, s := range live {
				s.maintain()
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, s := range live {
			defer s.Shutdown()
		}

		for i, id := range ids {
			st, err := store.ReadStatus(id)
			if err != nil {
				t.Fatalf("job %s: no status on disk: %v", id, err)
			}
			if st.State != StateDone {
				t.Errorf("job %s: state %s (%d/%d, retries %d, %q), want done",
					id, st.State, st.CasesDone, st.CasesTotal, st.Retries, st.LastError)
				continue
			}
			got := store.ReadResult(id)
			if !bytes.Equal(got, want[i]) {
				t.Errorf("job %s: accounting diverged from uninterrupted baseline:\n--- want\n%s\n--- got\n%s",
					id, want[i], got)
			}
			// Clean jobs must finish with zero retries burned: a takeover
			// resumes the checkpoint, it never re-runs accounted work.
			if specs[i].Faults == "" && st.Retries != 0 {
				t.Errorf("job %s: %d retries burned across takeovers, want 0 (double execution?)",
					id, st.Retries)
			}
			if st.Instance == "" || st.Epoch < 1 {
				t.Errorf("job %s: final status carries no instance/epoch provenance: %+v", id, st)
			}
		}
	})

	t.Run("StalledInstanceSelfFences", func(t *testing.T) {
		sp := Spec{Fuzzer: "COMFORT", Cases: 40, Seed: 2, TestbedLimit: 6, CheckpointEvery: 8}
		want := expectedAccounting(t, sp)

		clk := newFakeClock()
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewSupervisor(twoInstanceOptions(store, clk, "alpha"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSupervisor(twoInstanceOptions(store, clk, "beta"))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Shutdown()

		// SIGSTOP emulation: alpha's third fenced write for the job (the
		// running transition, then the case-8 checkpoint, then the case-16
		// checkpoint) blocks until released — the process is alive but
		// stopped with a write already decided, the worst-case shape for a
		// stale writer.
		target := jobID(1)
		var calls atomic.Int32
		paused := make(chan struct{})
		release := make(chan struct{})
		a.writeGate = func(id string) {
			if id != target {
				return
			}
			if calls.Add(1) == 3 {
				close(paused)
				<-release
			}
		}

		st, err := a.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != target {
			t.Fatalf("submitted job is %s, test expects %s", st.ID, target)
		}
		<-paused

		// Alpha stalls past its TTL; beta scans, sees the expired claim,
		// and takes over by bumping the fencing epoch. Beta has finished
		// the job once its result is on disk and its run has returned —
		// the lease release is the run's last write.
		clk.Advance(testLeaseTTL + time.Second)
		b.maintain()
		deadline := time.Now().Add(2 * time.Minute)
		for store.ReadResult(target) == nil || !b.Idle() {
			if time.Now().After(deadline) {
				close(release)
				t.Fatal("beta never completed the taken-over job")
			}
			b.maintain()
			time.Sleep(2 * time.Millisecond)
		}
		got := store.ReadResult(target)
		if !bytes.Equal(got, want) {
			t.Fatalf("taken-over accounting diverged:\n--- want\n%s\n--- got\n%s", want, got)
		}
		lease, err := store.ReadLease(target)
		if err != nil || lease == nil {
			t.Fatalf("lease after takeover: %v, %+v", err, lease)
		}
		if lease.Instance != "beta" || lease.Epoch != 2 || !lease.Released {
			t.Fatalf("lease after beta finished: %+v, want beta/epoch 2/released", lease)
		}

		// Wake alpha: its pending write must self-fence — detect the lost
		// lease and write nothing — rather than clobber beta's result.
		if a.Fences() != 0 {
			t.Fatalf("alpha fenced before waking: %d", a.Fences())
		}
		close(release)
		deadline = time.Now().Add(time.Minute)
		for a.Fences() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("alpha never self-fenced after waking")
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Alpha's abandoned run drains; the job's disk state must remain
		// exactly beta's.
		for {
			cur, _ := a.JobStatus(target)
			if cur.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("alpha never mirrored beta's completion, state %s", cur.State)
			}
			a.maintain()
			time.Sleep(2 * time.Millisecond)
		}
		a.Shutdown()
		if got := store.ReadResult(target); !bytes.Equal(got, want) {
			t.Fatalf("stale instance corrupted the result after waking:\n--- want\n%s\n--- got\n%s", want, got)
		}
		final, err := store.ReadStatus(target)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Instance != "beta" || final.Epoch != 2 || final.Retries != 0 {
			t.Fatalf("final disk status %+v, want done by beta under epoch 2 with 0 retries", final)
		}
		endLease, err := store.ReadLease(target)
		if err != nil || endLease == nil || endLease.Epoch != 2 || endLease.Instance != "beta" {
			t.Fatalf("stale instance rewrote the lease: %+v (err %v)", endLease, err)
		}
	})
}

// TestSubmitSeqCollisionNeverTouchesPeerDirectory pins Submit's
// persist-first ordering: when this instance's candidate sequence number
// collides with a job a peer created first, the losing attempt must
// leave the peer-owned directory completely untouched — no lease, no
// status overwrite, no checkpoint — because the job is published to the
// dispatcher only after the directory create wins the arbitration.
// (Publishing first used to open a window where the dispatcher could
// lease the peer's directory and run a different spec inside it.)
func TestSubmitSeqCollisionNeverTouchesPeerDirectory(t *testing.T) {
	clk := newFakeClock()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSupervisor(twoInstanceOptions(store, clk, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// A peer wins seq 1 on the shared store after alpha booted, so
	// alpha's in-memory nextSeq still points at 1.
	peer := jobID(1)
	peerSpec := Spec{Fuzzer: "COMFORT", Cases: 8, Seed: 99, TestbedLimit: 2}
	peerStatus := Status{ID: peer, Seq: 1, State: StateQueued, CasesTotal: peerSpec.Cases}
	if err := store.CreateJob(peerStatus, peerSpec); err != nil {
		t.Fatal(err)
	}
	statusPath := filepath.Join(store.jobDir(peer), "status.json")
	peerBytes, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Submit(Spec{Fuzzer: "COMFORT", Cases: 16, Seed: 2, TestbedLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != jobID(2) {
		t.Fatalf("submit returned %s, want %s (seq 1 belongs to the peer)", st.ID, jobID(2))
	}
	waitIdle(t, s)

	// The losing attempt never surfaced: no job-000001 entry exists on
	// alpha (the heartbeat is parked, so only Submit could have added
	// one), and the peer directory holds exactly the peer's two files,
	// byte-identical.
	if _, ok := s.JobStatus(peer); ok {
		t.Fatalf("losing submit published %s into the supervisor", peer)
	}
	if l, lerr := store.ReadLease(peer); lerr != nil || l != nil {
		t.Fatalf("peer job was leased by the losing submit: %+v (err %v)", l, lerr)
	}
	entries, err := os.ReadDir(store.jobDir(peer))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "spec.json" || names[1] != "status.json" {
		t.Fatalf("peer directory contents %v, want exactly [spec.json status.json]", names)
	}
	if got, _ := os.ReadFile(statusPath); !bytes.Equal(got, peerBytes) {
		t.Fatalf("peer status rewritten by the losing submit:\n--- before\n%s\n--- after\n%s", peerBytes, got)
	}
	// The retried submission itself converged in its own directory.
	if final, ok := s.JobStatus(st.ID); !ok || final.State != StateDone {
		t.Fatalf("retried submission state %+v, want done", final)
	}
}
