// The persistent job store. Layout under the data root:
//
//	jobs/<id>/spec.json        the submitted Spec, written once
//	jobs/<id>/status.json      the Status, rewritten on every transition
//	jobs/<id>/checkpoint.json  the campaign.State (written by the campaign)
//	jobs/<id>/result.json      the final Accounting, written on completion
//
// Every write is atomic (atomicfile.Replace: temp file + rename in the
// target directory), so a SIGKILL at any instant leaves each file either
// absent, old or new — never torn — and the supervisor reconstructs the
// entire queue from this directory alone on startup.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"comfort/internal/atomicfile"
)

// Store is the on-disk job queue.
type Store struct {
	root string
}

// OpenStore opens (creating if needed) a data directory.
func OpenStore(root string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(root, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return &Store{root: root}, nil
}

// Root returns the data directory path.
func (s *Store) Root() string { return s.root }

func (s *Store) jobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

// CheckpointPath is where a job's campaign persists its checkpoint.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.jobDir(id), "checkpoint.json")
}

// ResultPath is where a job's final accounting lands.
func (s *Store) ResultPath(id string) string {
	return filepath.Join(s.jobDir(id), "result.json")
}

// jobID renders a sequence number as a job ID; IDs sort in submission
// order both lexically and numerically.
func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// seqOf parses a job ID back to its sequence number. Only canonical IDs
// (the ones jobID renders) parse, so a stray job-5 or job-0000005 never
// aliases job-000005's sequence.
func seqOf(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || jobID(n) != id {
		return 0, false
	}
	return n, true
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// CreateJob persists a new job: its directory, spec and initial status.
// The directory create is plain Mkdir, not MkdirAll: it doubles as the
// cross-instance arbiter for sequence numbers — two instances submitting
// concurrently cannot both create job-NNNNNN, the loser sees fs.ErrExist
// and retries with the next sequence.
func (s *Store) CreateJob(st Status, sp Spec) error {
	dir := s.jobDir(st.ID)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	data, err := atomicfile.Encode(sp)
	if err != nil {
		return err
	}
	if err := atomicfile.Replace(filepath.Join(dir, "spec.json"), data); err != nil {
		return err
	}
	return s.WriteStatus(st)
}

// WriteStatus atomically rewrites a job's status file.
func (s *Store) WriteStatus(st Status) error {
	data, err := atomicfile.Encode(st)
	if err != nil {
		return err
	}
	return atomicfile.Replace(filepath.Join(s.jobDir(st.ID), "status.json"), data)
}

// WriteResult atomically writes a job's final accounting bytes.
func (s *Store) WriteResult(id string, data []byte) error {
	return atomicfile.Replace(s.ResultPath(id), data)
}

// ReadResult returns a job's final accounting bytes, or nil when the job
// has not completed.
func (s *Store) ReadResult(id string) []byte {
	data, err := os.ReadFile(s.ResultPath(id))
	if err != nil {
		return nil
	}
	return data
}

// JobRecord is one reconstructed job.
type JobRecord struct {
	Spec   Spec
	Status Status
}

// LoadJobs reconstructs every job from disk in submission (sequence)
// order and reports the highest sequence number seen. Directories with a
// torn or missing spec are skipped and reported as warnings rather than
// failing the whole startup — one corrupt job must not hold the queue
// hostage.
func (s *Store) LoadJobs() (jobs []JobRecord, maxSeq int, warnings []string, err error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, 0, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		seq, ok := seqOf(id)
		if !ok {
			warnings = append(warnings, fmt.Sprintf("%s: not a job directory, skipped", id))
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		var rec JobRecord
		if err := readJSON(filepath.Join(s.jobDir(id), "spec.json"), &rec.Spec); err != nil {
			warnings = append(warnings, fmt.Sprintf("%s: unreadable spec (%v), skipped", id, err))
			continue
		}
		if err := readJSON(filepath.Join(s.jobDir(id), "status.json"), &rec.Status); err != nil {
			// A kill between spec and first status write: reconstruct the
			// initial status from the spec.
			rec.Status = Status{State: StateQueued, CasesTotal: rec.Spec.Cases}
		}
		rec.Status.ID = id
		rec.Status.Seq = seq
		rec.Status.CasesTotal = rec.Spec.Cases
		jobs = append(jobs, rec)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Status.Seq < jobs[j].Status.Seq })
	return jobs, maxSeq, warnings, nil
}
