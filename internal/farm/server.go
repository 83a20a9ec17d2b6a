package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nowomp/internal/scenario"
)

// Job is one accepted submission's lifecycle record. Fields are
// guarded by the server's mutex; Done is closed on reaching a terminal
// state.
type Job struct {
	// ID is the server-assigned job id, Seq its admission order.
	ID  string
	Seq int64
	// Tenant is the submitting tenant, Hash the scenario's content
	// address, Spec its canonical form.
	Tenant string
	Hash   string
	Spec   scenario.Spec
	// State is queued, running, done or failed; Cache is the store's
	// disposition (hit, dedup or fresh).
	State string
	Cache Disposition
	// Err is the failure message of a failed job.
	Err string

	submitted time.Time
	started   time.Time
	finished  time.Time
	flight    *Flight
	// Done is closed when the job reaches done or failed.
	Done chan struct{}
}

// JobView is the JSON shape of GET /v1/jobs/{id}: lifecycle state plus
// the per-job latency split (queue wait, simulation, total) the stats
// and the load driver report.
type JobView struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Cache  string `json:"cache"`
	Hash   string `json:"hash"`
	// QueueSeconds is time spent pending admission (for a dedup job:
	// waiting on the in-flight leader), SimSeconds time occupying a
	// worker, TotalSeconds submission to terminal state. All are real
	// (wall-clock) seconds — the service is a real server even though
	// the simulations inside it run on virtual time.
	QueueSeconds float64 `json:"queue_seconds"`
	SimSeconds   float64 `json:"sim_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
	Error        string  `json:"error,omitempty"`
	ResultURL    string  `json:"result_url,omitempty"`
}

// Server is the farm service: store + admission + workers behind the
// HTTP surface.
type Server struct {
	limits Limits
	store  *Store
	disp   *dispatcher

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int64
	busy int

	wg sync.WaitGroup
}

// NewServer builds the service and starts its worker pool.
func NewServer(limits Limits) *Server {
	s := &Server{
		limits: limits.withDefaults(),
		store:  NewStore(),
		jobs:   map[string]*Job{},
	}
	s.disp = newDispatcher(s.limits)
	for i := 0; i < s.limits.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close drains the worker pool. In-flight simulations finish; pending
// jobs are left queued.
func (s *Server) Close() {
	s.disp.close()
	s.wg.Wait()
}

// Store exposes the result store (tests and the driver read it).
func (s *Server) Store() *Store { return s.store }

var errQueueFull = errors.New("farm: tenant queue full")

// Submit runs the admission path for one scenario: normalize and hash
// the spec, consult the store (hit / dedup / fresh), and for a fresh
// hash admit into the tenant's queue. It returns the job, or the
// Retry-After seconds when the tenant's queue is full.
func (s *Server) Submit(tenantName string, spec scenario.Spec) (*Job, int, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, 0, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return nil, 0, err
	}
	if tenantName == "" {
		tenantName = "default"
	}

	now := time.Now()
	s.mu.Lock()
	disp, data, flight := s.store.Begin(hash)
	s.seq++
	j := &Job{
		ID: fmt.Sprintf("j-%06d", s.seq), Seq: s.seq,
		Tenant: tenantName, Hash: hash, Spec: norm,
		Cache: disp, State: "queued",
		submitted: now, Done: make(chan struct{}),
	}
	switch disp {
	case Hit:
		_ = data // the stored bytes are served via /v1/results/{hash}
		j.State = "done"
		j.started, j.finished = now, now
		s.disp.recordServed(tenantName, false)
		close(j.Done)
		s.jobs[j.ID] = j
		s.mu.Unlock()
	case Dedup:
		j.flight = flight
		s.jobs[j.ID] = j
		s.mu.Unlock()
		go s.awaitFlight(j)
	case Fresh:
		admitted, retryAfter := s.disp.enqueue(j)
		if !admitted {
			s.store.Abort(hash, flight, errQueueFull)
			s.seq-- // the job never existed
			s.mu.Unlock()
			return nil, retryAfter, errQueueFull
		}
		j.flight = flight
		s.jobs[j.ID] = j
		s.mu.Unlock()
	}
	return j, 0, nil
}

// worker drains the dispatcher: claim, simulate, store, finalize. Its
// workspace keeps the page buffers of one run for the next.
func (s *Server) worker() {
	defer s.wg.Done()
	var ws scenario.Workspace
	for {
		j := s.disp.next()
		if j == nil {
			return
		}
		s.mu.Lock()
		j.State = "running"
		j.started = time.Now()
		s.busy++
		s.mu.Unlock()

		// RunChecked keeps a poisoned scenario from unwinding the worker:
		// a panicking simulation becomes one failed job, not a dead
		// service, and the workspace drops the buffers it may have left
		// shared.
		res, err := ws.RunChecked(j.Spec)
		var body []byte
		if err == nil {
			body, err = res.Encode()
		}
		s.store.Complete(j.Hash, j.flight, body, err)
		s.disp.finish(j, err != nil)
		s.finalize(j, err)
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// awaitFlight completes a dedup job when its leader finishes.
func (s *Server) awaitFlight(j *Job) {
	<-j.flight.Done
	err := j.flight.Err
	s.disp.recordServed(j.Tenant, err != nil)
	s.mu.Lock()
	j.started = time.Now() // a dedup job never occupies a worker
	s.mu.Unlock()
	s.finalize(j, err)
}

// finalize moves a job to its terminal state. The caller has counted
// the outcome already, so a client woken by Done finds it in Stats.
func (s *Server) finalize(j *Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.State = "failed"
		j.Err = err.Error()
	} else {
		j.State = "done"
	}
	close(j.Done)
}

// view renders a job's JSON shape.
func (s *Server) view(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, State: j.State,
		Cache: j.Cache.String(), Hash: j.Hash, Error: j.Err,
	}
	switch j.State {
	case "running":
		v.QueueSeconds = j.started.Sub(j.submitted).Seconds()
		v.SimSeconds = time.Since(j.started).Seconds()
		v.TotalSeconds = time.Since(j.submitted).Seconds()
	case "done", "failed":
		v.QueueSeconds = j.started.Sub(j.submitted).Seconds()
		v.SimSeconds = j.finished.Sub(j.started).Seconds()
		v.TotalSeconds = j.finished.Sub(j.submitted).Seconds()
	default: // queued
		v.QueueSeconds = time.Since(j.submitted).Seconds()
		v.TotalSeconds = v.QueueSeconds
	}
	if j.State == "done" {
		v.ResultURL = "/v1/results/" + j.Hash
	}
	return v
}

// Stats is the GET /v1/stats document.
type Stats struct {
	Cache CacheStats `json:"cache"`
	// Jobs aggregates across tenants; Rejected counts 429s (rejected
	// submissions never become jobs, so submitted excludes them and
	// submitted == completed + failed + in progress).
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
	} `json:"jobs"`
	Pool struct {
		Workers int `json:"workers"`
		Busy    int `json:"busy"`
	} `json:"pool"`
	Tenants map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	var st Stats
	st.Cache = s.store.Stats()
	st.Tenants = s.disp.stats()
	for _, t := range st.Tenants {
		st.Jobs.Submitted += t.Submitted
		st.Jobs.Completed += t.Completed
		st.Jobs.Failed += t.Failed
		st.Jobs.Rejected += t.Rejected
	}
	s.mu.Lock()
	st.Pool.Workers = s.limits.Workers
	st.Pool.Busy = s.busy
	s.mu.Unlock()
	return st
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a submitted spec body. A longer body is refused
// whole, never cut short and decoded.
const maxSpecBytes = 1 << 20

// handleSubmit is POST /v1/jobs: body is a scenario spec, the tenant
// comes from the X-Tenant header (or ?tenant=), and ?wait=true blocks
// until the job reaches a terminal state.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("spec body over %d bytes", tooLarge.Limit))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := scenario.Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenantName := r.Header.Get("X-Tenant")
	if tenantName == "" {
		tenantName = r.URL.Query().Get("tenant")
	}
	j, retryAfter, err := s.Submit(tenantName, spec)
	if errors.Is(err, errQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": err.Error(), "retry_after_seconds": retryAfter,
		})
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		s.waitJob(j)
	}
	v := s.view(j)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	if v.State == "done" || v.State == "failed" {
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// waitJob blocks for a terminal state up to the wait timeout.
func (s *Server) waitJob(j *Job) {
	select {
	case <-j.Done:
	case <-time.After(s.limits.WaitTimeout):
	}
}

// handleJob is GET /v1/jobs/{id} (with optional ?wait=true).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("farm: no such job"))
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		s.waitJob(j)
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleResult is GET /v1/results/{hash}: the raw stored bytes —
// exactly what the simulation encoded, byte-identical on every fetch.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, ok := s.store.Lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("farm: no result for this hash"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
