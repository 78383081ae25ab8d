// Lease-based job claims: how several comfortd instances safely share
// one job store. Each instance carries a stable ID; before running a job
// it must hold the job's lease — a per-job file `lease.json` recording
// {instance, epoch, deadline}. The protocol:
//
//   - First claim is an atomic create-if-absent (temp file + hard link),
//     so racing instances cannot both win an unclaimed job.
//   - A held lease is renewed by heartbeat: the holder re-reads the file,
//     verifies it still carries its own {instance, epoch}, and renames in
//     a copy with a fresh deadline.
//   - A peer may take a job over only when the lease is released,
//     expired (deadline passed without renewal), or carries the taker's
//     own instance ID (a prior incarnation of itself — a restarted
//     process cannot be racing itself, so it reclaims immediately, which
//     is what keeps single-instance restarts as fast as PR 9's). A
//     takeover bumps the fencing epoch.
//   - Every store write for a running job — status, checkpoint, result —
//     is epoch-fenced: the writer re-checks that its own deadline has not
//     passed and that the lease file still carries its exact
//     {instance, epoch} before renaming bytes into place. An instance
//     that was stalled past its TTL (GC pause, SIGSTOP, partition to a
//     network store) therefore detects the newer epoch — or its own
//     expired deadline — and self-fences instead of corrupting a peer's
//     state.
//   - Graceful shutdown releases held leases (Released flag, epoch
//     preserved) so a peer picks the work up immediately instead of
//     waiting out the TTL.
//
// Why epoch-fenced rename is sufficient on a local FS: all instances
// share one kernel clock, so "deadline passed" means the same instant to
// everyone and expiry checks need no drift margin. The only unguarded
// window is the few instructions between a writer's fence check and its
// rename syscall; a takeover needs a full TTL of missed renewals first,
// so overlapping that window requires the holder to stall for the whole
// TTL and wake exactly inside it — the classical lease argument, with
// the TTL (seconds) dwarfing the window (microseconds). DESIGN.md §9
// spells out the full state machine.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"comfort/internal/atomicfile"
)

// LeaseFormatVersion is bumped whenever the lease encoding changes
// incompatibly; ReadLease rejects newer formats cleanly so an old binary
// never misreads (and then overwrites) a newer instance's claim.
const LeaseFormatVersion = 1

// Lease is one job's on-disk claim record.
type Lease struct {
	Format   int    `json:"format"`
	Instance string `json:"instance"`
	// Epoch is the fencing counter, bumped by every takeover. Epochs are
	// NOT globally unique on their own: two instances contesting the
	// same expired lease both mint cur.Epoch+1, so arbitration rests on
	// the {Instance, Epoch} pair — fencedWrite compares both, which is
	// what keeps durable writes single-writer even when two takers
	// transiently believe they hold the same epoch. A writer whose
	// {instance, epoch} is not the file's exact pair has lost the claim.
	Epoch int64 `json:"epoch"`
	// DeadlineMS is the claim's expiry as Unix milliseconds on the
	// store host's clock; renewals push it forward by the TTL.
	DeadlineMS int64 `json:"deadline_ms"`
	// Released marks a graceful hand-back: the job is immediately
	// claimable, and the preserved epoch keeps the fencing history
	// monotone across the hand-off.
	Released bool `json:"released,omitempty"`
}

// fresh reports whether the lease still protects its holder at time now.
func (l *Lease) fresh(now time.Time) bool {
	return !l.Released && now.UnixMilli() < l.DeadlineMS
}

// sameClaim reports whether l and o are the same claim: both present,
// with the same {Instance, Epoch} pair (see Epoch).
func (l *Lease) sameClaim(o *Lease) bool {
	return l != nil && o != nil && l.Instance == o.Instance && l.Epoch == o.Epoch
}

// holds reports whether the job's lease file still carries exactly claim l.
func (s *Supervisor) holds(id string, l *Lease) bool {
	cur, err := s.store.ReadLease(id)
	return err == nil && cur.sameClaim(l)
}

// ErrFenced reports a store write refused because the writer no longer
// holds the job's lease (a peer bumped the fencing epoch, or the
// writer's own deadline passed without renewal).
var ErrFenced = errors.New("lease lost: write fenced")

// errLeaseBusy reports a claim attempt on a job whose lease a live peer
// holds; the maintenance scan re-checks it every heartbeat.
var errLeaseBusy = errors.New("job is claimed by a live peer")

// PeerHeldError reports an operation that needs a job's lease while a
// live peer instance holds it (surfaced by the HTTP layer as a 409).
type PeerHeldError struct{ Instance string }

func (e *PeerHeldError) Error() string {
	return fmt.Sprintf("job is running on live instance %q", e.Instance)
}

// --- store-level lease file operations -------------------------------

// LeasePath is where a job's claim record lives.
func (s *Store) LeasePath(id string) string {
	return filepath.Join(s.jobDir(id), "lease.json")
}

// ReadLease returns a job's lease, nil when the job is unclaimed, or an
// error for a torn/garbage file or a future format version. Lease-file
// errors are per-job: the caller quarantines that one claim, never the
// server.
func (s *Store) ReadLease(id string) (*Lease, error) {
	data, err := os.ReadFile(s.LeasePath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lease for %s: %w", id, err)
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("lease for %s unreadable (torn or garbage): %v", id, err)
	}
	if l.Format > LeaseFormatVersion {
		return nil, fmt.Errorf("lease for %s has format %d, this build reads %d — refusing to contest a newer instance's claim",
			id, l.Format, LeaseFormatVersion)
	}
	if l.Format < 1 || l.Instance == "" || l.Epoch < 1 {
		return nil, fmt.Errorf("lease for %s is malformed (format %d, instance %q, epoch %d)",
			id, l.Format, l.Instance, l.Epoch)
	}
	return &l, nil
}

// CreateLease atomically creates a job's lease if and only if none
// exists (atomicfile.Create: temp file + hard link), failing with
// fs.ErrExist when a peer won the race. Unlike rename, link never
// replaces — it is the claim arbiter.
func (s *Store) CreateLease(id string, l *Lease) error {
	data, err := atomicfile.Encode(l)
	if err != nil {
		return err
	}
	return atomicfile.Create(s.LeasePath(id), data)
}

// WriteLease atomically replaces a job's lease record (renewal, epoch
// takeover, release). Callers arbitrate via ReadLease checks; see the
// package comment for why check-then-rename suffices here.
func (s *Store) WriteLease(id string, l *Lease) error {
	data, err := atomicfile.Encode(l)
	if err != nil {
		return err
	}
	return atomicfile.Replace(s.LeasePath(id), data)
}

// ReadStatus reads a job's persisted status file (the disk truth a
// non-holding instance mirrors).
func (s *Store) ReadStatus(id string) (Status, error) {
	var st Status
	err := readJSON(filepath.Join(s.jobDir(id), "status.json"), &st)
	return st, err
}

// --- supervisor-side claim / fence machinery -------------------------

// newLease builds a lease for this instance expiring one TTL from now.
func (s *Supervisor) newLease(epoch int64) *Lease {
	return &Lease{
		Format:     LeaseFormatVersion,
		Instance:   s.instance,
		Epoch:      epoch,
		DeadlineMS: s.now().Add(s.ttl).UnixMilli(),
	}
}

// claimJob tries to take a job's lease for this instance. nil means the
// claim is held (j.lease set); errLeaseBusy means a live peer holds it;
// a permanent error (garbage or future-format lease file) quarantines
// the job.
func (s *Supervisor) claimJob(j *Job) error {
	j.mu.Lock()
	held := j.lease
	j.mu.Unlock()
	cur, err := s.store.ReadLease(j.ID)
	if err != nil {
		return permanentf("%v", err)
	}
	next := s.newLease(1)
	switch {
	case cur == nil:
		// Unclaimed: the atomic create arbitrates racing peers.
		if cerr := s.store.CreateLease(j.ID, next); cerr != nil {
			if errors.Is(cerr, fs.ErrExist) {
				return errLeaseBusy
			}
			return fmt.Errorf("lease create: %w", cerr)
		}
	case cur.sameClaim(held):
		// Still ours from an earlier attempt this incarnation (a retry
		// after backoff, say): extend in place, same epoch.
		next.Epoch = cur.Epoch
		if werr := s.store.WriteLease(j.ID, next); werr != nil {
			return fmt.Errorf("lease renew: %w", werr)
		}
	case cur.Instance == s.instance || cur.Released || !cur.fresh(s.now()):
		// A prior incarnation of this instance, a graceful release, or a
		// dead peer's expired claim: fencing takeover. Bump the epoch so
		// every write the previous holder still has in flight detects
		// the transfer and self-fences.
		next.Epoch = cur.Epoch + 1
		if werr := s.store.WriteLease(j.ID, next); werr != nil {
			return fmt.Errorf("lease takeover: %w", werr)
		}
		// Rename is last-writer-wins: confirm this takeover landed (a
		// peer contesting the same expired lease may have renamed after
		// us — its fence checks will agree it owns the job, ours won't).
		// The confirm itself can race: a contender whose read lands
		// before the rival's rename also believes it won, so two takers
		// may transiently both run until the loser's first fenced write
		// self-fences. Re-confirm once to shrink that window; the safety
		// argument never rests on it — durable writes stay single-writer
		// because fencedWrite compares the {instance, epoch} pair.
		for confirm := 0; confirm < 2; confirm++ {
			if !s.holds(j.ID, next) {
				return errLeaseBusy
			}
		}
	default:
		// A live peer's fresh claim.
		if held != nil {
			s.fenceJob(j) // we thought it was ours; it is not
		}
		return errLeaseBusy
	}
	j.mu.Lock()
	j.lease = next
	j.fenced = false
	j.mu.Unlock()
	return nil
}

// fencedWrite performs one store write for a claimed job under the
// fencing protocol: the write happens only if this instance's lease is
// unexpired by its own clock AND the lease file still carries exactly
// this instance and epoch. On any mismatch the job is fenced locally
// (run cancelled, no further writes) and ErrFenced is returned.
func (s *Supervisor) fencedWrite(j *Job, write func() error) error {
	if gate := s.writeGate; gate != nil {
		gate(j.ID) // test seam: emulates a SIGSTOP'd/stalled instance
	}
	if s.killed.Load() {
		return ErrFenced
	}
	j.mu.Lock()
	l := j.lease
	j.mu.Unlock()
	if l == nil {
		return ErrFenced
	}
	if !l.fresh(s.now()) {
		// Our own deadline passed without renewal: we may already have
		// been taken over. Self-suspend before even looking at the file.
		s.fenceJob(j)
		return ErrFenced
	}
	if !s.holds(j.ID, l) {
		s.fenceJob(j)
		return ErrFenced
	}
	return write()
}

// fenceJob marks a job as lost to a peer: the claim is dropped, the
// running campaign (if any) is cancelled, and no transition or store
// write for the job happens from this instance again until a successful
// re-claim.
func (s *Supervisor) fenceJob(j *Job) {
	j.mu.Lock()
	already := j.fenced
	j.fenced = true
	j.lease = nil
	cancel := j.cancelRun
	j.mu.Unlock()
	if already {
		return
	}
	s.fences.Add(1)
	if cancel != nil {
		cancel()
	}
}

// releaseLease gracefully hands a held lease back: the on-disk record is
// marked released with its epoch preserved, so a peer claims the job
// immediately instead of waiting out the TTL. Only this holder's exact
// record is replaced — if the epoch moved on, the lease already belongs
// to someone else and is left alone.
func (s *Supervisor) releaseLease(j *Job) {
	j.mu.Lock()
	l := j.lease
	j.lease = nil
	j.mu.Unlock()
	if l == nil || s.killed.Load() {
		return
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if !s.holds(j.ID, l) {
		return
	}
	rel := *l
	rel.Released = true
	_ = s.store.WriteLease(j.ID, &rel)
}

// renewLeases extends every lease this instance holds by one TTL,
// fencing any job whose on-disk lease no longer matches (a peer took it
// over while we stalled).
func (s *Supervisor) renewLeases() {
	for _, j := range s.snapshotJobs() {
		if s.killed.Load() {
			return
		}
		s.renewLease(j)
	}
}

// renewLease renews one job's claim. It holds leaseMu, as releaseLease
// does, so a release never lands between the renewal's check and its
// write, where the renewal would overwrite the hand-back with a live
// claim a peer must wait out.
func (s *Supervisor) renewLease(j *Job) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	j.mu.Lock()
	l := j.lease
	terminal := terminalState(j.status.State)
	j.mu.Unlock()
	if l == nil || terminal {
		return
	}
	if !l.fresh(s.now()) {
		// Our own deadline passed without renewal — a peer may already
		// be mid-takeover. Renewing anyway would reopen the classic
		// read/write window: a stale holder waking between the peer's
		// takeover read and write could rename its old-epoch record
		// back over the fresh lease and silently steal ownership back.
		// Self-fence instead; that narrows the steal-back window to
		// the same microsecond rename race data writes already accept.
		s.fenceJob(j)
		return
	}
	if !s.holds(j.ID, l) {
		s.fenceJob(j)
		return
	}
	nl := s.newLease(l.Epoch)
	if werr := s.store.WriteLease(j.ID, nl); werr == nil {
		j.mu.Lock()
		if j.lease == l {
			j.lease = nl
		}
		j.mu.Unlock()
	}
}

// scanStore is the dead-peer takeover half of the maintenance tick: it
// re-reads the job directory, adopts jobs submitted to peers, mirrors
// the disk status of every job this instance does not hold, and
// enqueues claims for jobs whose lease is absent, released, expired, or
// left behind by a prior incarnation of this instance.
func (s *Supervisor) scanStore() {
	records, maxSeq, _, err := s.store.LoadJobs()
	if err != nil {
		return
	}
	s.mu.Lock()
	if maxSeq >= s.nextSeq {
		s.nextSeq = maxSeq + 1
	}
	adopted := false
	for _, rec := range records {
		if s.jobs[rec.Status.ID] != nil {
			continue
		}
		s.adoptLocked(rec)
		adopted = true
	}
	if adopted {
		jobs := s.jobs
		sort.Slice(s.order, func(a, b int) bool { return jobs[s.order[a]].Seq < jobs[s.order[b]].Seq })
	}
	s.mu.Unlock()

	now := s.now()
	for _, j := range s.snapshotJobs() {
		// A job a runJob goroutine of this instance owns is never
		// re-enqueued: mid-claim, the lease file already names this
		// instance while j.lease is still nil, and a second claim would
		// read that as a prior incarnation's lease and take it over.
		j.mu.Lock()
		mine := j.lease != nil || j.running
		terminal := terminalState(j.status.State)
		cancelled := j.cancelled
		j.mu.Unlock()
		if mine || terminal || cancelled {
			continue
		}
		cur, lerr := s.store.ReadLease(j.ID)
		s.refreshFromDisk(j)
		j.mu.Lock()
		state := j.status.State
		j.mu.Unlock()
		if terminalState(state) {
			continue
		}
		// Claimable: unclaimed, broken lease (the claim path will
		// quarantine it with the actionable error), released, expired,
		// or a prior incarnation's. A fresh peer lease is left alone.
		if lerr == nil && cur != nil && cur.Instance != s.instance && cur.fresh(now) {
			continue
		}
		s.mu.Lock()
		if !s.draining {
			s.enqueueLocked(j.ID)
		}
		s.mu.Unlock()
		s.kick()
	}
}

// refreshFromDisk mirrors a job's persisted status into this instance's
// in-memory view — the read side of multi-instance visibility. It never
// touches a job this instance holds or has already seen terminate.
func (s *Supervisor) refreshFromDisk(j *Job) {
	st, err := s.store.ReadStatus(j.ID)
	if err != nil {
		return
	}
	st.ID, st.Seq = j.ID, j.Seq
	st.CasesTotal = j.Spec.Cases
	j.mu.Lock()
	if j.lease != nil || terminalState(j.status.State) {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.mu.Unlock()
	if terminalState(st.State) && !s.killed.Load() {
		j.hub.publish(Sample{JobID: j.ID, State: st.State,
			Progress: campaignProgress(st)})
		j.hub.close()
	}
}

// maintain is one lease-maintenance tick: renew every held lease, then
// scan for peer activity and expired claims. The production heartbeat
// loop calls it on a wall-clock timer; deterministic tests call it
// directly.
func (s *Supervisor) maintain() {
	if s.killed.Load() {
		return
	}
	s.renewLeases()
	s.scanStore()
}

// leaseLoop is the background heartbeat: one maintain tick per
// Heartbeat interval until shutdown.
func (s *Supervisor) leaseLoop() {
	defer s.wg.Done()
	for s.hbSleep(s.ctx, s.hb) {
		if s.killed.Load() {
			return
		}
		s.maintain()
	}
}

// snapshotJobs copies the job list under the supervisor lock.
func (s *Supervisor) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}
