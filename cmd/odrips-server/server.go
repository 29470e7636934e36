package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"odrips/internal/fleet"
	"odrips/internal/jobqueue"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/report"
)

// maxSpecBytes bounds a job submission body; real specs are well under
// a kilobyte, so a megabyte is generous without being a memory hazard.
const maxSpecBytes = 1 << 20

// server is the HTTP layer over one job queue and its shared memo
// plane. Routing is by hand (not ServeMux patterns) so every miss —
// unknown path, wrong method, bad ID — produces the same typed JSON
// error body the API promises, instead of the mux's plain-text 404/405.
type server struct {
	q     *jobqueue.Queue
	plane *platform.MemoPlane
	// progressEvery paces the results stream's progress frames; tests
	// shrink it to keep streaming coverage fast.
	progressEvery time.Duration
}

func newServer(q *jobqueue.Queue, plane *platform.MemoPlane, progressEvery time.Duration) *server {
	if progressEvery <= 0 {
		progressEvery = 100 * time.Millisecond
	}
	return &server{q: q, plane: plane, progressEvery: progressEvery}
}

// Connection timeouts of the HTTP side: without them a client that never
// finishes its request header, or parks an idle keep-alive connection,
// holds a connection and a goroutine forever. There is deliberately no
// WriteTimeout, because it would cut long NDJSON result streams.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer wraps the API handler in the http.Server main serves.
func (s *server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no route %s", r.URL.Path))
	})
	return mux
}

// apiError is the one error body shape every non-2xx response carries.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = msg
	writeJSON(w, status, e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The value is one of our own serializable types; an encode failure
	// here means the response is already half-written, so there is
	// nothing better to do than let the client see the truncation.
	_ = enc.Encode(v)
}

// submitError maps a queue submission failure to its response.
func submitError(w http.ResponseWriter, err error) {
	var se *fleet.SpecError
	switch {
	case errors.As(err, &se):
		writeError(w, http.StatusBadRequest, "bad_spec", se.Error())
	case errors.Is(err, jobqueue.ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
	case errors.Is(err, jobqueue.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "queue_full", err.Error())
	case errors.Is(err, jobqueue.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// jobView is the job status representation shared by the submit
// response, the status endpoint, and the stream's progress frames.
type jobView struct {
	ID       string              `json:"id"`
	Seq      uint64              `json:"seq"`
	State    jobqueue.State      `json:"state"`
	Progress fleet.ProgressStats `json:"progress"`
}

func viewOf(j *jobqueue.Job) jobView {
	return jobView{ID: j.ID(), Seq: j.Seq(), State: j.State(), Progress: j.Progress()}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" /healthz")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statsView is the /v1/stats body: the queue's counters plus the memo
// layers behind it (plane LRU, persistent store).
type statsView struct {
	Queue jobqueue.Stats          `json:"queue"`
	Plane platform.MemoPlaneStats `json:"plane"`
	Store memostore.Stats         `json:"store"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" /v1/stats")
		return
	}
	writeJSON(w, http.StatusOK, statsView{
		Queue: s.q.Stats(),
		Plane: s.plane.Stats(),
		Store: s.plane.Store().Stats(),
	})
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" /v1/jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
		return
	}
	spec, err := fleet.ParseSpecJSON(body)
	if err != nil {
		submitError(w, err)
		return
	}
	j, err := s.q.Submit(spec)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j))
}

// handleJob serves /v1/jobs/{id} (GET status, DELETE cancel) and
// /v1/jobs/{id}/results (GET NDJSON stream).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "results") {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no route %s", r.URL.Path))
		return
	}
	j, err := s.q.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("job %s", id))
		return
	}
	switch {
	case sub == "results":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" results")
			return
		}
		s.streamResults(w, r, j)
	case r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, viewOf(j))
	case r.Method == http.MethodDelete:
		state, err := s.q.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("job %s", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": state})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" /v1/jobs/{id}")
	}
}

// Stream frame shapes. Every line is one JSON object with a "frame"
// discriminator; the aggregates payload is embedded as raw bytes so the
// byte-identity guarantee of the fleet engine survives the transport
// (the server never re-marshals what determinism tests will hash).
type progressFrame struct {
	Frame string  `json:"frame"` // "progress"
	Job   jobView `json:"job"`
}

type resultFrame struct {
	Frame   string          `json:"frame"` // "aggregates", "memo", "shards"
	Payload json.RawMessage `json:"payload"`
}

type doneFrame struct {
	Frame string         `json:"frame"` // "done"
	State jobqueue.State `json:"state"`
}

type errorFrame struct {
	Frame   string `json:"frame"` // "error"
	Code    string `json:"code"`
	Message string `json:"message"`
}

// streamResults writes the job's NDJSON result stream: at least one
// progress frame (more while the job runs, paced by progressEvery),
// then on success the aggregates/memo/shards frames, and always a
// terminal done frame (or an error frame first for failed/canceled
// jobs). A disconnecting client stops the stream but never the job.
func (s *server) streamResults(w http.ResponseWriter, r *http.Request, j *jobqueue.Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	nd := report.NewNDJSON(w)
	if err := nd.Write(progressFrame{Frame: "progress", Job: viewOf(j)}); err != nil {
		return
	}
	tick := time.NewTicker(s.progressEvery)
	defer tick.Stop()
wait:
	for {
		select {
		case <-j.Done():
			break wait
		case <-r.Context().Done():
			return
		case <-tick.C:
			if err := nd.Write(progressFrame{Frame: "progress", Job: viewOf(j)}); err != nil {
				return
			}
		}
	}

	rep, err := j.Result()
	if err != nil {
		code := "failed"
		if j.State() == jobqueue.StateCanceled {
			code = "canceled"
		}
		_ = nd.Write(errorFrame{Frame: "error", Code: code, Message: err.Error()})
		_ = nd.Write(doneFrame{Frame: "done", State: j.State()})
		return
	}
	// Final progress frame: the completed counters.
	if err := nd.Write(progressFrame{Frame: "progress", Job: viewOf(j)}); err != nil {
		return
	}
	for _, part := range []struct {
		frame string
		v     any
	}{
		{"aggregates", rep.Aggregates},
		{"memo", rep.Memo},
		{"shards", rep.Shards},
	} {
		raw, err := json.Marshal(part.v)
		if err != nil {
			_ = nd.Write(errorFrame{Frame: "error", Code: "internal", Message: err.Error()})
			_ = nd.Write(doneFrame{Frame: "done", State: jobqueue.StateFailed})
			return
		}
		if err := nd.Write(resultFrame{Frame: part.frame, Payload: raw}); err != nil {
			return
		}
	}
	_ = nd.Write(doneFrame{Frame: "done", State: j.State()})
}
