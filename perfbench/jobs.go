package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"comfort/internal/engines"
	"comfort/internal/server"
)

// daemon is an in-process comfortd: a supervisor over a store in a temp
// directory, serving its HTTP API on a loopback listener.
type daemon struct {
	store  *server.Store
	sup    *server.Supervisor
	srv    *http.Server
	url    string
	served chan struct{}
	client *http.Client
}

// startDaemon opens a store in dir and serves comfortd on 127.0.0.1 with
// a pool of workers() slots and two concurrently running jobs.
func startDaemon(dir string) (*daemon, error) {
	store, err := server.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	sup, err := server.NewSupervisor(server.Options{
		Store:         store,
		PoolWorkers:   workers(),
		MaxActive:     2,
		ProgressEvery: progressEvery,
		Clock:         time.Now,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sup.Shutdown()
		return nil, err
	}
	d := &daemon{
		store:  store,
		sup:    sup,
		srv:    &http.Server{Handler: server.Handler(sup)},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and every connection, waits for the server
// goroutine, and shuts the supervisor down.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.srv.Close()
	<-d.served
	d.sup.Shutdown()
}

// jobResult is one job's client-side observation.
type jobResult struct {
	id                     string
	submit, first, latency time.Duration
	// running is when a status poll first saw the job running (traced
	// runs only; 0 otherwise).
	running    time.Duration
	accounting []byte
	executed   int
}

// jobsRep is one comfortd-jobs rep: jobsPerRep jobs over jobClients
// closed-loop clients.
type jobsRep struct {
	jobs []jobResult // by job index
}

// sameAs reports whether every job's accounting is byte-identical to the
// reference rep's.
func (r jobsRep) sameAs(ref jobsRep) bool {
	if len(r.jobs) != len(ref.jobs) {
		return false
	}
	for i := range r.jobs {
		if !bytes.Equal(r.jobs[i].accounting, ref.jobs[i].accounting) {
			return false
		}
	}
	return true
}

// jobSpec is the spec job i of a run submits.
func jobSpec(seed int64, i int) server.Spec {
	return server.Spec{Fuzzer: "COMFORT", Cases: jobCases, Seed: jobSeed(seed, i),
		Workers: workers(), GenShards: workers()}
}

// runJobsRep runs one rep: each client submits a job, follows its SSE
// stream to the end, fetches the final status, then submits its next job.
// poll additionally polls the job status until it runs (traced runs).
func runJobsRep(d *daemon, seed int64, t *tally, poll bool) (jobsRep, rep, error) {
	out := jobsRep{jobs: make([]jobResult, jobsPerRep)}
	var mu sync.Mutex
	var firstErr error
	r, err := measured(func() (int, error) {
		var wg sync.WaitGroup
		for c := 0; c < jobClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < jobsPerRep; i += jobClients {
					jr, ok, err := d.runJob(jobSpec(seed, i), poll)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					t.check(ok, "job %d (seed %d) did not end done with parseable accounting", i, jobSeed(seed, i))
					out.jobs[i] = jr
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		executed := 0
		for _, jr := range out.jobs {
			executed += jr.executed
		}
		return executed, firstErr
	})
	return out, r, err
}

// runJob submits one job and follows it to the end. ok is false for a
// refused submission, a job that ends other than done, or accounting that
// does not parse or covers an incomplete grid; err is reserved for
// transport failures that stop the run.
func (d *daemon) runJob(sp server.Spec, poll bool) (jobResult, bool, error) {
	var jr jobResult
	body, err := json.Marshal(sp)
	if err != nil {
		return jr, false, err
	}
	start := time.Now()
	resp, err := d.client.Post(d.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, false, fmt.Errorf("submit: %w", err)
	}
	var st server.Status
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jr.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		return jr, false, nil
	}
	jr.id = st.ID

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if poll {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			jr.running = d.pollRunning(st.ID, start, stopPoll)
		}()
	}
	streamErr := d.follow(st.ID, start, &jr)
	close(stopPoll)
	pollWG.Wait()
	if streamErr != nil {
		return jr, false, streamErr
	}
	jr.latency = time.Since(start)

	resp, err = d.client.Get(d.url + "/jobs/" + st.ID)
	if err != nil {
		return jr, false, fmt.Errorf("status: %w", err)
	}
	var final struct {
		Status     server.Status   `json:"status"`
		Accounting json.RawMessage `json:"accounting"`
	}
	decErr = json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if decErr != nil || final.Status.State != server.StateDone {
		return jr, false, nil
	}
	var a server.Accounting
	if err := json.Unmarshal(final.Accounting, &a); err != nil {
		return jr, false, nil
	}
	jr.accounting = final.Accounting
	jr.executed = a.Executed
	ok := a.CasesRun == sp.Cases && a.Executed == a.CasesRun*len(engines.Testbeds())
	return jr, ok, nil
}

// follow reads the job's SSE stream to its end, stamping the first sample.
func (d *daemon) follow(id string, start time.Time, jr *jobResult) error {
	resp, err := d.client.Get(d.url + "/jobs/" + id + "/stream")
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		// State transitions are streamed too, with the case position at
		// the time; the first progress sample is the first past case 0.
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok || jr.first != 0 {
			continue
		}
		var sample server.Sample
		if json.Unmarshal([]byte(data), &sample) == nil && sample.Done > 0 {
			jr.first = time.Since(start)
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// pollRunning polls the job's status until it leaves the queue, returning
// the time from start until it was first seen running (or beyond).
func (d *daemon) pollRunning(id string, start time.Time, stop <-chan struct{}) time.Duration {
	for {
		select {
		case <-stop:
			return time.Since(start)
		default:
		}
		if st, ok := d.sup.JobStatus(id); ok && st.State != server.StateQueued {
			return time.Since(start)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
