// The HTTP/JSON surface of comfortd. Thin by design: every endpoint
// translates between HTTP and the supervisor, which owns all state. The
// stream endpoint speaks server-sent events off a hub subscription; its
// bounded drop-oldest buffer is what lets a slow or dead client fall
// behind without ever stalling the campaign feeding it.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// MaxSpecBytes bounds a POST /jobs body. A Spec is a few hundred bytes
// of JSON; the bound stops a client from streaming an unbounded body into
// the decoder. An oversize body is answered 413.
const MaxSpecBytes = 1 << 20

// Handler builds the comfortd HTTP API over a supervisor:
//
//	POST /jobs              submit a Spec, returns the created Status
//	GET  /jobs              list all job statuses in submission order
//	GET  /jobs/{id}         one job's status (+ accounting once done)
//	POST /jobs/{id}/cancel  cancel a non-terminal job
//	GET  /jobs/{id}/stream  server-sent events of progress samples
//	GET  /healthz           liveness + queue counters
func Handler(s *Supervisor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var sp Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("spec exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed spec: %v", err))
			return
		}
		st, err := s.Submit(sp)
		if err != nil {
			var qf *QueueFullError
			switch {
			case errors.As(err, &qf):
				w.Header().Set("Retry-After", strconv.Itoa(int(qf.RetryAfter.Seconds())))
				writeError(w, http.StatusServiceUnavailable, err.Error())
			case errors.Is(err, ErrDraining):
				writeError(w, http.StatusServiceUnavailable, err.Error())
			default:
				writeError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		writeJSONResponse(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": s.List()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := s.JobStatus(id)
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		resp := map[string]any{"status": st}
		if st.State == StateDone {
			if data := s.Accounting(id); data != nil {
				resp["accounting"] = json.RawMessage(data)
			}
		}
		writeJSONResponse(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		switch err := s.CancelJob(id); {
		case err == nil:
			st, _ := s.JobStatus(id)
			writeJSONResponse(w, http.StatusOK, st)
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrTerminal):
			writeError(w, http.StatusConflict, err.Error())
		default:
			var ph *PeerHeldError
			if errors.As(err, &ph) {
				writeError(w, http.StatusConflict, err.Error())
				return
			}
			writeError(w, http.StatusInternalServerError, err.Error())
		}
	})
	mux.HandleFunc("GET /jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sub, ok := s.Subscribe(id)
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		defer s.Unsubscribe(id, sub)
		fl, canFlush := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		if canFlush {
			fl.Flush()
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case sample, open := <-sub.ch:
				if !open {
					return // terminal state reached: stream complete
				}
				data, err := json.Marshal(sample)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
					return
				}
				if canFlush {
					fl.Flush()
				}
			}
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		counts := map[string]int{}
		for _, st := range s.List() {
			counts[st.State]++
		}
		resp := map[string]any{
			"ok":   true,
			"jobs": counts,
			// The operator's view of this instance's lease health: its
			// identity, how many jobs it holds, how often it self-fenced
			// (non-zero means it keeps losing claims to peers), and how
			// many jobs are parked in quarantine.
			"instance": map[string]any{
				"id":          s.Instance(),
				"leases_held": s.LeasesHeld(),
				"fences":      s.Fences(),
				"quarantined": counts[StateQuarantined],
			},
		}
		if warns := s.Warnings(); len(warns) > 0 {
			resp["store_warnings"] = warns
		}
		writeJSONResponse(w, http.StatusOK, resp)
	})
	return mux
}

func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSONResponse(w, code, map[string]any{"error": msg})
}
