// The supervisor: a crash-only scheduler for campaign jobs. Queued jobs
// run over a shared execution gate, at most MaxActive campaigns at a
// time; each run is panic-isolated, auto-resumes from its checkpoint,
// and on failure re-enters the queue under exponential backoff until its
// retry budget is exhausted and it is quarantined with the last error
// preserved. Every state transition is persisted atomically before the
// supervisor moves on, so the disk is always one rename behind the truth
// — the recovery invariant a SIGKILL at any instant cannot break.
//
// Several supervisors may share one store: each instance claims a job's
// lease before running it and fences every write with its lease epoch
// (lease.go), so at-most-one-writer holds even when two live processes
// disagree about who owns a job.
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/atomicfile"
	"comfort/internal/campaign"
	"comfort/internal/exec"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// Options parameterises a Supervisor. The zero value of every field has a
// usable default; only Store is required.
type Options struct {
	Store *Store
	// InstanceID is this process's stable identity for job leases. Two
	// instances sharing a store must use distinct IDs; a restarted
	// process should reuse its old ID so it can reclaim its own leases
	// immediately instead of waiting out the TTL. Empty means "solo".
	InstanceID string
	// LeaseTTL is how long a job claim survives without renewal; a peer
	// may take over only after the deadline passes. 0 means 15s.
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal + peer-scan interval. 0 means
	// LeaseTTL/3 — three missed renewals before a claim can be contested.
	Heartbeat time.Duration
	// HeartbeatSleep waits out one heartbeat interval, returning false if
	// ctx was cancelled first. Nil means a real timer; deterministic
	// tests park the loop and call maintain() directly.
	HeartbeatSleep func(ctx context.Context, d time.Duration) bool
	// PoolWorkers sizes the shared execution gate — the cross-campaign
	// bound on concurrent interpreter runs; 0 means GOMAXPROCS.
	PoolWorkers int
	// MaxActive bounds concurrently-running campaigns; 0 means 2.
	MaxActive int
	// QueueMax bounds the backlog (queued + backoff-waiting jobs).
	// Submissions past the bound are rejected with a retry-after signal —
	// admission control protects running jobs instead of degrading them.
	// 0 means 64.
	QueueMax int
	// MaxRetries is how many consecutive no-progress failures a job may
	// accumulate before quarantine; a run that advances the job's
	// accounted cases resets the count (crash-looping is the disease,
	// being killed mid-progress is not). 0 means 3.
	MaxRetries int
	// BackoffBase/BackoffMax shape the retry delay schedule (see
	// backoff.go); 0 means 1s / 1min.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Clock stamps status transitions, drives the campaigns'
	// checkpoint-interval/deadline axes, and times lease deadlines. Nil
	// stamps no timestamps and times leases on the system clock.
	Clock func() time.Time
	// Sleep waits out a backoff delay, returning false if ctx was
	// cancelled first. Nil means a real timer; tests inject an instant,
	// recording sleeper to pin the schedule.
	Sleep func(ctx context.Context, d time.Duration) bool
	// ProgressEvery is the campaigns' progress cadence in cases; 0 means
	// 64.
	ProgressEvery int
}

// Typed submission errors, surfaced by the HTTP layer as status codes.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server is draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("no such job")
	// ErrTerminal reports an operation on a job that already reached a
	// terminal state.
	ErrTerminal = errors.New("job already in a terminal state")
)

// QueueFullError rejects a submission over the admission bound, carrying
// the backpressure signal: how long the client should wait before
// retrying.
type QueueFullError struct {
	Backlog    int
	Limit      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queue full (%d jobs backlogged, limit %d); retry after %s",
		e.Backlog, e.Limit, e.RetryAfter)
}

// permanentError marks failures no retry can fix (corrupt checkpoints,
// fingerprint mismatches): the job is quarantined immediately.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanentf(format string, args ...any) error {
	return &permanentError{err: fmt.Errorf(format, args...)}
}

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Job is one supervised campaign.
type Job struct {
	ID   string
	Seq  int
	Spec Spec
	hub  *hub

	mu        sync.Mutex
	status    Status
	cancelRun context.CancelFunc // non-nil while running
	cancelled bool               // operator requested cancellation
	// lease is this instance's claim on the job, nil when unclaimed or
	// lost; fenced marks a claim detected as lost (no write for the job
	// leaves this instance again until a successful re-claim).
	lease  *Lease
	fenced bool
	// running is set while a runJob goroutine owns the job in this
	// instance — including the window inside claimJob where the lease
	// file already names this instance but lease is not yet set.
	running bool
}

// adoptLocked registers a job rebuilt from its on-disk record and closes a
// terminal job's hub. The caller holds s.mu (NewSupervisor owns s).
func (s *Supervisor) adoptLocked(rec JobRecord) *Job {
	j := &Job{ID: rec.Status.ID, Seq: rec.Status.Seq, Spec: rec.Spec, hub: newHub(), status: rec.Status}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if terminalState(j.status.State) {
		j.hub.close()
	}
	return j
}

// snapshot returns a copy of the job's status.
func (j *Job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// isFenced reports whether this instance has lost the job's claim.
func (j *Job) isFenced() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fenced
}

// noteProgress updates the in-memory case position from a progress
// sample (the persisted position lives in the checkpoint).
func (j *Job) noteProgress(done int) {
	j.mu.Lock()
	j.status.CasesDone = done
	j.mu.Unlock()
}

// campaignProgress renders a status as a stream progress payload.
func campaignProgress(st Status) campaign.Progress {
	return campaign.Progress{Done: st.CasesDone, Total: st.CasesTotal}
}

// Supervisor schedules jobs; see the package comment for the contract.
type Supervisor struct {
	opt      Options
	store    *Store
	gate     exec.Gate
	sleep    func(ctx context.Context, d time.Duration) bool
	hbSleep  func(ctx context.Context, d time.Duration) bool
	now      func() time.Time
	instance string
	ttl      time.Duration
	hb       time.Duration
	ctx      context.Context
	cancel   context.CancelFunc
	// killed emulates SIGKILL for the in-process crash oracle: once set,
	// no goroutine writes another byte to disk or transitions another
	// status — the process is "dead", only the checkpoints already
	// renamed into place survive.
	killed atomic.Bool
	// fences counts self-fencing events — writes this instance refused
	// because it detected a lost lease. Surfaced in /healthz.
	fences atomic.Int64
	// runHook, when set by a test, runs before each campaign attempt and
	// may fail the attempt without executing anything — the seam for
	// driving the retry/backoff/quarantine machinery deterministically.
	runHook func(*Job) error
	// writeGate, when set by a test, runs at the top of every fenced
	// write for the job and may block — the SIGSTOP-emulation seam: a
	// paused instance is one stuck between deciding to write and writing.
	writeGate func(jobID string)
	leaseMu   sync.Mutex // serialises renewLease's and releaseLease's read-then-write

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // all job IDs in sequence order
	queue    []string        // runnable job IDs
	queued   map[string]bool // membership index over queue
	active   int
	nextSeq  int
	draining bool
	wake     chan struct{}
	wg       sync.WaitGroup
	warnings []string
}

// NewSupervisor reconstructs the queue from the store and starts the
// scheduling loop. Jobs found in any non-terminal state — including
// "running", which only a dead or live-peer server leaves behind — are
// re-queued and auto-resume from their checkpoints, except jobs whose
// lease a live peer instance holds: those are mirrored read-only until
// the peer finishes, releases, or lets the lease expire.
func NewSupervisor(opt Options) (*Supervisor, error) {
	if opt.Store == nil {
		return nil, errors.New("server: Options.Store is required")
	}
	if opt.InstanceID == "" {
		opt.InstanceID = "solo"
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 15 * time.Second
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = opt.LeaseTTL / 3
	}
	if opt.PoolWorkers <= 0 {
		opt.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxActive <= 0 {
		opt.MaxActive = 2
	}
	if opt.QueueMax <= 0 {
		opt.QueueMax = 64
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = 3
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = time.Second
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = time.Minute
	}
	if opt.ProgressEvery <= 0 {
		opt.ProgressEvery = 64
	}
	s := &Supervisor{
		opt:      opt,
		store:    opt.Store,
		gate:     exec.NewGate(opt.PoolWorkers),
		sleep:    opt.Sleep,
		hbSleep:  opt.HeartbeatSleep,
		now:      opt.Clock,
		instance: opt.InstanceID,
		ttl:      opt.LeaseTTL,
		hb:       opt.Heartbeat,
		jobs:     map[string]*Job{},
		queued:   map[string]bool{},
		wake:     make(chan struct{}, 1),
	}
	if s.sleep == nil {
		s.sleep = defaultSleep
	}
	if s.hbSleep == nil {
		s.hbSleep = defaultSleep
	}
	if s.now == nil {
		s.now = time.Now //detlint:wallclock — lease deadlines default to the system clock
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	records, maxSeq, warnings, err := s.store.LoadJobs()
	if err != nil {
		return nil, err
	}
	s.warnings = warnings
	s.nextSeq = maxSeq + 1
	for _, rec := range records {
		j := s.adoptLocked(rec)
		if terminalState(j.status.State) {
			continue
		}
		// A live peer's fresh claim means the job is being run elsewhere:
		// mirror it read-only. Everything else — no lease, a released or
		// expired one, a lease left by this instance's own prior
		// incarnation, even an unreadable one (the claim path quarantines
		// it with the actionable error) — is ours to recover: crash
		// (running), drain (interrupted) and lost backoff (waiting) all
		// collapse to queued and resume from the checkpoint.
		if lease, lerr := s.store.ReadLease(j.ID); lerr == nil && lease != nil &&
			lease.Instance != s.instance && lease.fresh(s.now()) {
			continue
		}
		j.status.State = StateQueued
		j.status.NextRetryMS = 0
		s.stamp(&j.status)
		s.persist(j)
		s.enqueueLocked(j.ID)
	}
	s.wg.Add(2)
	go s.loop()
	go s.leaseLoop()
	s.kick()
	return s, nil
}

// Warnings reports non-fatal startup findings (skipped corrupt job dirs).
func (s *Supervisor) Warnings() []string { return s.warnings }

// Instance returns this supervisor's stable lease identity.
func (s *Supervisor) Instance() string { return s.instance }

// LeasesHeld counts jobs whose lease this instance currently holds.
func (s *Supervisor) LeasesHeld() int {
	n := 0
	for _, j := range s.snapshotJobs() {
		j.mu.Lock()
		if j.lease != nil {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Fences reports how many claims this instance has detected as lost and
// self-fenced (a healthy instance reports 0; growth means it keeps
// losing leases to peers — stalls, clock trouble, or a TTL too short).
func (s *Supervisor) Fences() int64 { return s.fences.Load() }

// defaultSleep waits out a backoff delay on a real timer.
func defaultSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d) //detlint:wallclock — retry backoff legitimately waits wall time
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// stamp adds wall-clock metadata when a clock is configured.
func (s *Supervisor) stamp(st *Status) {
	if s.opt.Clock != nil {
		st.UpdatedAt = s.opt.Clock().UTC().Format(time.RFC3339)
	}
}

// persist writes a job's status unless the supervisor is "dead". A failed
// write never stops the supervisor (mirroring checkpoint-failure
// semantics); the state is re-persisted at the next transition. Used only
// for jobs this instance does not hold a lease for (startup collapse,
// quarantine of unclaimable jobs) — leased jobs persist via transition's
// fenced path.
func (s *Supervisor) persist(j *Job) {
	if s.killed.Load() {
		return
	}
	_ = s.store.WriteStatus(j.status)
}

// transition applies mutate under the job lock, stamps and persists the
// new status, and publishes it to stream subscribers. Terminal states
// close the job's hub after the final sample. When this instance holds
// the job's lease the status write is epoch-fenced; a fenced write
// reverts the in-memory mutation and publishes nothing — the peer that
// took the job over owns its story now.
func (s *Supervisor) transition(j *Job, mutate func(*Status)) Status {
	j.mu.Lock()
	if j.fenced {
		st := j.status
		j.mu.Unlock()
		return st
	}
	prev := j.status
	mutate(&j.status)
	s.stamp(&j.status)
	st := j.status
	leased := j.lease != nil
	j.mu.Unlock()
	if leased {
		err := s.fencedWrite(j, func() error { return s.store.WriteStatus(st) })
		if errors.Is(err, ErrFenced) {
			j.mu.Lock()
			j.status = prev
			j.mu.Unlock()
			return prev
		}
	} else {
		s.persist(j)
	}
	if !s.killed.Load() {
		j.hub.publish(Sample{JobID: j.ID, State: st.State, Progress: campaignProgress(st)})
		if terminalState(st.State) {
			j.hub.close()
		}
	}
	return st
}

func (s *Supervisor) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler: it admits queued jobs into free active slots.
func (s *Supervisor) loop() {
	defer s.wg.Done()
	for {
		s.dispatch()
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// enqueueLocked appends a job to the runnable queue unless it is already
// there. Caller holds s.mu.
func (s *Supervisor) enqueueLocked(id string) {
	if s.queued[id] {
		return
	}
	s.queued[id] = true
	s.queue = append(s.queue, id)
}

// dequeueLocked removes a job from the runnable queue. Caller holds s.mu.
func (s *Supervisor) dequeueLocked(id string) {
	if !s.queued[id] {
		return
	}
	delete(s.queued, id)
	for i, qid := range s.queue {
		if qid == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
}

// dispatch admits runnable jobs into free active slots, highest priority
// first, submission order within a priority.
func (s *Supervisor) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && s.active < s.opt.MaxActive && len(s.queue) > 0 {
		best := 0
		for i := 1; i < len(s.queue); i++ {
			c, b := s.jobs[s.queue[i]], s.jobs[s.queue[best]]
			if c == nil {
				continue
			}
			if b == nil || c.Spec.Priority > b.Spec.Priority ||
				(c.Spec.Priority == b.Spec.Priority && c.Seq < b.Seq) {
				best = i
			}
		}
		id := s.queue[best]
		s.queue = append(s.queue[:best], s.queue[best+1:]...)
		delete(s.queued, id)
		j := s.jobs[id]
		if j == nil || terminalState(j.snapshot().State) {
			continue
		}
		s.active++
		s.wg.Add(1)
		j.mu.Lock()
		j.running = true
		j.mu.Unlock()
		go s.runJob(j)
	}
}

// Submit validates and enqueues a new job, applying admission control:
// when the backlog is at the bound the submission is rejected with a
// QueueFullError rather than admitted to degrade running work. Sequence
// numbers are arbitrated across instances by the job directory create —
// a seq a peer claimed first is skipped and the next one tried.
//
// Persist first, publish second: the job enters s.jobs and the run
// queue only after store.CreateJob has won the cross-instance seq
// arbitration. Publishing before the directory create would open a
// window where, during a seq collision, this instance's dispatcher
// could claim a lease inside the peer-owned job-NNNNNN directory and
// run a different spec there — or a stale retry goroutine could write
// an unfenced status into it after the withdrawal.
func (s *Supervisor) Submit(sp Spec) (Status, error) {
	if err := sp.Validate(); err != nil {
		return Status{}, err
	}
	for {
		s.mu.Lock()
		if s.draining || s.ctx.Err() != nil {
			s.mu.Unlock()
			return Status{}, ErrDraining
		}
		backlog := len(s.queue)
		for _, id := range s.order {
			if s.jobs[id].snapshot().State == StateWaiting {
				backlog++
			}
		}
		if backlog >= s.opt.QueueMax {
			s.mu.Unlock()
			return Status{}, &QueueFullError{Backlog: backlog, Limit: s.opt.QueueMax, RetryAfter: s.opt.BackoffBase}
		}
		seq := s.nextSeq
		s.nextSeq++
		j := &Job{ID: jobID(seq), Seq: seq, Spec: sp, hub: newHub()}
		j.status = Status{ID: j.ID, Seq: seq, State: StateQueued, CasesTotal: sp.Cases}
		s.stamp(&j.status)
		s.mu.Unlock()

		err := s.store.CreateJob(j.status, sp)
		if errors.Is(err, fs.ErrExist) {
			// A peer instance claimed this sequence number first; the
			// next maintenance scan will adopt its job. Try the next seq.
			continue
		}
		if err != nil {
			return Status{}, fmt.Errorf("persist job: %w", err)
		}

		s.mu.Lock()
		if existing := s.jobs[j.ID]; existing != nil {
			// The maintenance scan adopted this job from disk between the
			// directory create and here — same job, keep the adopted entry
			// (subscribers may already be attached to its hub).
			s.mu.Unlock()
			s.kick()
			return existing.snapshot(), nil
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if n := len(s.order); n > 1 && s.jobs[s.order[n-2]].Seq > seq {
			// A concurrent Submit with a higher seq persisted first; keep
			// the listing in sequence order.
			jobs := s.jobs
			sort.Slice(s.order, func(a, b int) bool { return jobs[s.order[a]].Seq < jobs[s.order[b]].Seq })
		}
		s.enqueueLocked(j.ID)
		s.mu.Unlock()
		s.kick()
		return j.snapshot(), nil
	}
}

// JobStatus returns one job's current status.
func (s *Supervisor) JobStatus(id string) (Status, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Status{}, false
	}
	return j.snapshot(), true
}

// List returns every job's status in submission order.
func (s *Supervisor) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// Accounting returns a completed job's final accounting bytes (nil until
// completion).
func (s *Supervisor) Accounting(id string) []byte {
	return s.store.ReadResult(id)
}

// Subscribe attaches a progress subscriber to a job's stream.
func (s *Supervisor) Subscribe(id string) (*subscriber, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, false
	}
	return j.hub.subscribe(), true
}

// Unsubscribe detaches a Subscribe'd subscriber.
func (s *Supervisor) Unsubscribe(id string, sub *subscriber) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		j.hub.unsubscribe(sub)
	}
}

// CancelJob cancels a job in any non-terminal state: running campaigns
// drain and flush a final checkpoint, queued/waiting jobs leave the
// queue. A job running on a live peer instance cannot be cancelled here
// — the attempt returns a PeerHeldError naming the holder. The
// checkpoint is retained, so a cancelled job's work is not lost —
// resubmitting the same spec on a fresh server could resume it.
func (s *Supervisor) CancelJob(id string) error {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	st := j.status.State
	cancelRun := j.cancelRun
	held := j.lease != nil
	if terminalState(st) {
		j.mu.Unlock()
		s.mu.Unlock()
		return ErrTerminal
	}
	j.cancelled = true
	j.mu.Unlock()
	s.dequeueLocked(id)
	s.mu.Unlock()

	switch {
	case held && cancelRun != nil:
		// The runner observes the cancellation and performs the terminal
		// transition after the campaign's final checkpoint flush.
		cancelRun()
	case held:
		s.transition(j, func(st *Status) { st.State = StateCancelled })
		s.releaseLease(j)
	default:
		// No claim held here. Take the lease (possible only when it is
		// absent, released, expired, or a prior incarnation's) and cancel
		// under it; a live peer's claim makes the cancel its to perform.
		if err := s.claimJob(j); err != nil {
			j.mu.Lock()
			j.cancelled = false
			j.mu.Unlock()
			if errors.Is(err, errLeaseBusy) {
				holder := "unknown"
				if cur, rerr := s.store.ReadLease(id); rerr == nil && cur != nil {
					holder = cur.Instance
				}
				return &PeerHeldError{Instance: holder}
			}
			if isPermanent(err) {
				s.quarantine(j, err)
				return nil
			}
			return err
		}
		s.transition(j, func(st *Status) { st.State = StateCancelled })
		s.releaseLease(j)
	}
	return nil
}

// Idle reports whether no job is queued, waiting or running.
func (s *Supervisor) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active > 0 || len(s.queue) > 0 {
		return false
	}
	for _, id := range s.order {
		if st := s.jobs[id].snapshot().State; st == StateWaiting || st == StateRunning || st == StateQueued {
			return false
		}
	}
	return true
}

// Shutdown drains gracefully: no new admissions, every running campaign
// is cancelled (each flushes a final checkpoint on its way out) and
// marked interrupted, every held lease is released so a peer can pick
// the work up immediately, and the call returns when every goroutine has
// exited. A subsequent NewSupervisor over the same store resumes all
// unfinished work.
func (s *Supervisor) Shutdown() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	for _, j := range s.snapshotJobs() {
		s.releaseLease(j)
	}
}

// kill emulates SIGKILL for the in-process crash-recovery oracle: every
// goroutine is abandoned mid-flight and — crucially — nothing is flushed,
// drained, released or transitioned on the way down. Only bytes already
// renamed into place survive, exactly the disk a real SIGKILL leaves
// behind (held leases stay on disk un-released and must expire).
func (s *Supervisor) kill() {
	s.killed.Store(true)
	s.cancel()
	s.wg.Wait()
}

// runJob is one attempt at one job: claim its lease, resume-or-run the
// campaign behind a recover() chokepoint, then route the outcome through
// the state machine. A job whose lease a live peer holds is mirrored and
// skipped; a job fenced mid-run is abandoned without a transition — the
// peer that took it over owns it now, and this instance burned no retry.
func (s *Supervisor) runJob(j *Job) {
	defer s.wg.Done()
	defer func() {
		j.mu.Lock()
		j.running = false
		j.mu.Unlock()
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		s.kick()
	}()

	j.mu.Lock()
	if j.cancelled || terminalState(j.status.State) {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	switch err := s.claimJob(j); {
	case err == nil:
	case errors.Is(err, errLeaseBusy):
		s.refreshFromDisk(j)
		return
	case isPermanent(err):
		s.quarantine(j, err)
		return
	default:
		s.retry(j, err, false)
		return
	}

	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		s.transition(j, func(st *Status) { st.State = StateCancelled })
		s.releaseLease(j)
		return
	}
	runCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.cancelRun = cancel
	startCases := j.status.CasesDone
	epoch := j.lease.Epoch
	j.mu.Unlock()
	s.transition(j, func(st *Status) {
		st.State = StateRunning
		st.NextRetryMS = 0
		st.Instance = s.instance
		st.Epoch = epoch
	})

	res, err := s.runCampaign(runCtx, j)

	j.mu.Lock()
	j.cancelRun = nil
	userCancelled := j.cancelled
	fenced := j.fenced
	j.mu.Unlock()

	if s.killed.Load() {
		return // "dead": no transitions, no writes
	}
	if fenced {
		// The claim was lost mid-run: a peer owns the job and its
		// checkpoint now. Mirror whatever it publishes; no retry burned.
		s.refreshFromDisk(j)
		return
	}
	switch {
	case err != nil && isPermanent(err):
		s.quarantine(j, err)
		s.releaseLease(j)
	case err != nil:
		s.retry(j, err, res != nil && res.CasesRun > startCases)
	case res.CasesRun >= j.Spec.Cases:
		s.complete(j, res)
	case userCancelled:
		s.transition(j, func(st *Status) {
			st.State = StateCancelled
			st.CasesDone = res.CasesRun
		})
		s.releaseLease(j)
	case s.ctx.Err() != nil:
		// Graceful drain: the campaign flushed its final checkpoint; the
		// released lease lets a peer — or the next incarnation — resume
		// immediately.
		s.transition(j, func(st *Status) {
			st.State = StateInterrupted
			st.CasesDone = res.CasesRun
		})
		s.releaseLease(j)
	default:
		// The campaign stopped early without cancellation — an injected
		// kill plan or an exhausted generator. Treat as a crash: retry
		// from the checkpoint.
		s.retry(j, fmt.Errorf("campaign stopped at %d/%d cases", res.CasesRun, j.Spec.Cases),
			res.CasesRun > startCases)
	}
}

// runCampaign builds the campaign config from the job spec and runs it,
// resuming from the job's checkpoint when one exists. Checkpoint writes
// go through the lease fence — a stale instance's campaign cannot
// overwrite the checkpoint a peer is resuming from. All panics — the
// supervisor's own bugs included — surface as retryable errors, never as
// a dead server.
func (s *Supervisor) runCampaign(ctx context.Context, j *Job) (res *campaign.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job runner panic: %v", r)
		}
	}()
	if s.runHook != nil {
		if herr := s.runHook(j); herr != nil {
			return nil, herr
		}
	}
	f, ok := fuzzers.ByName(j.Spec.Fuzzer)
	if !ok {
		return nil, permanentf("unknown fuzzer %q", j.Spec.Fuzzer)
	}
	ckptPath := s.store.CheckpointPath(j.ID)
	cfg := campaign.Config{
		Fuzzer:          f,
		Testbeds:        j.Spec.testbeds(),
		Cases:           j.Spec.Cases,
		Seed:            j.Spec.Seed,
		Fuel:            j.Spec.Fuel,
		Workers:         j.Spec.Workers,
		GenShards:       j.Spec.GenShards,
		ReduceWitnesses: j.Spec.Reduce,
		DisableDedup:    j.Spec.DisableDedup,
		Context:         ctx,
		Gate:            s.gate,
		Clock:           s.opt.Clock,
		Checkpoint:      ckptPath,
		CheckpointEvery: j.Spec.CheckpointEvery,
		ProgressEvery:   s.opt.ProgressEvery,
		WriteCheckpoint: func(st *campaign.State) error {
			return s.fencedWrite(j, func() error { return campaign.WriteState(ckptPath, st) })
		},
		Progress: func(p campaign.Progress) {
			if j.isFenced() {
				return
			}
			j.noteProgress(p.Done)
			j.hub.publish(Sample{JobID: j.ID, State: StateRunning, Progress: p})
		},
	}
	if j.Spec.Faults != "" {
		fcfg, ferr := faultinject.Parse(j.Spec.Faults)
		if ferr != nil {
			return nil, permanentf("fault spec: %v", ferr)
		}
		cfg.Faults = faultinject.New(fcfg)
	}
	if _, serr := os.Stat(cfg.Checkpoint); serr == nil {
		st, lerr := campaign.LoadState(cfg.Checkpoint)
		if lerr != nil {
			return nil, permanentf("checkpoint unreadable: %v", lerr)
		}
		res, rerr := campaign.Resume(cfg, st)
		if rerr != nil {
			// Fingerprint mismatches arrive here with the diverging fields
			// spelled out by campaign.DiffFingerprints.
			return nil, permanentf("resume: %v", rerr)
		}
		return res, nil
	}
	return campaign.Run(cfg), nil
}

// retry schedules another attempt under backoff, or quarantines the job
// when its no-progress retry budget is spent. progressed resets the
// budget: a job that keeps advancing its checkpoint is being killed, not
// crash-looping. The lease is kept (and heartbeat-renewed) through the
// backoff so peers don't steal a job that is merely waiting; a drain
// releases it so they can.
func (s *Supervisor) retry(j *Job, cause error, progressed bool) {
	var delay time.Duration
	quarantined := false
	s.transition(j, func(st *Status) {
		if progressed {
			st.Retries = 0
		}
		st.Retries++
		if st.Retries > s.opt.MaxRetries {
			st.State = StateQuarantined
			st.LastError = fmt.Sprintf("%v (retries exhausted: %d failures without progress)", cause, st.Retries-1)
			quarantined = true
			return
		}
		delay = retryDelay(s.opt.BackoffBase, s.opt.BackoffMax, j.Seq, st.Retries)
		st.State = StateWaiting
		st.LastError = cause.Error()
		st.NextRetryMS = delay.Milliseconds()
	})
	if quarantined {
		s.releaseLease(j)
		return
	}
	if j.isFenced() {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if s.killed.Load() {
			return
		}
		if s.sleep(s.ctx, delay) {
			s.requeue(j)
		} else {
			// Drain while waiting: hand the lease back so a peer (or the
			// next incarnation) retries without waiting out the TTL.
			s.releaseLease(j)
		}
	}()
}

// requeue returns a backoff-expired job to the queue.
func (s *Supervisor) requeue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed.Load() {
		return
	}
	if s.draining {
		s.releaseLease(j)
		return
	}
	j.mu.Lock()
	skip := j.cancelled || j.fenced || terminalState(j.status.State)
	j.mu.Unlock()
	if skip {
		return
	}
	s.transition(j, func(st *Status) {
		st.State = StateQueued
		st.NextRetryMS = 0
	})
	s.enqueueLocked(j.ID)
	s.kick()
}

// quarantine parks a job terminally with its last error preserved.
func (s *Supervisor) quarantine(j *Job, cause error) {
	s.transition(j, func(st *Status) {
		st.State = StateQuarantined
		st.LastError = cause.Error()
	})
}

// complete records a finished campaign: the deterministic accounting is
// written first (the byte-identical artifact), then the terminal status.
// Both writes are fenced — an instance that lost the job while its final
// cases were in flight writes neither and lets the peer's run finish the
// job.
func (s *Supervisor) complete(j *Job, res *campaign.Result) {
	data, err := atomicfile.Encode(accountingOf(res))
	if err == nil {
		err = s.fencedWrite(j, func() error { return s.store.WriteResult(j.ID, data) })
	}
	if errors.Is(err, ErrFenced) {
		s.refreshFromDisk(j)
		return
	}
	s.transition(j, func(st *Status) {
		st.State = StateDone
		st.CasesDone = res.CasesRun
		st.Findings = len(res.Found)
		if err != nil {
			st.LastError = fmt.Sprintf("result write failed: %v", err)
		}
	})
	s.releaseLease(j)
}
