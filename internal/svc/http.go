package svc

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pmsort/internal/core"
)

// JobRequest is the POST /jobs body. Either a workload spec (kind + n)
// or raw keys; when Keys is non-empty it wins and kind/n are ignored.
// Wait=true makes the request block until the job completes and return
// its final status (including the sorted keys for gathered jobs).
type JobRequest struct {
	Algo   string `json:"algo,omitempty"`   // ams (default), rlm, gv, mp, bitonic, hist, hcq
	Kind   string `json:"kind,omitempty"`   // uniform (default), skewed, dup-heavy, …
	N      int64  `json:"n,omitempty"`      // total elements across ranks
	Seed   uint64 `json:"seed,omitempty"`   // workload generator seed
	Levels int    `json:"levels,omitempty"` // recursion levels (default 1)
	Keyed  *bool  `json:"keyed,omitempty"`  // radix fast path, default true

	Keys []uint64 `json:"keys,omitempty"` // raw input; returned sorted
	Wait bool     `json:"wait,omitempty"`

	// TimeoutMS is the job's deadline in milliseconds, measured from
	// dispatch (0 = none). An expired job is aborted mesh-wide, fails
	// with error_kind "deadline", and releases its admission budget
	// immediately.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobStatus is the job representation returned by POST /jobs and
// GET /jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued | running | done | failed
	Error  string `json:"error,omitempty"`

	// ErrorKind classifies a failure: a transport error kind
	// ("stalled", "reset", "hangup", "retired", "aborted") or
	// "deadline"; empty for validation and sort errors. ErrorRank is
	// the rank the failure is attributed to (nil and omitted when none —
	// a pointer, so rank 0 is not mistaken for "no rank"), and Attempts
	// counts dispatches (>1 means the job was retried).
	ErrorKind string `json:"error_kind,omitempty"`
	ErrorRank *int64 `json:"error_rank,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`

	Algo string `json:"algo"`
	Kind string `json:"kind,omitempty"`
	N    int64  `json:"n"`

	Count      int64            `json:"count,omitempty"`
	First      uint64           `json:"first,omitempty"`
	Last       uint64           `json:"last,omitempty"`
	Sum        uint64           `json:"sum,omitempty"` // order-independent multiset hash
	Keys       []uint64         `json:"keys,omitempty"`
	PhaseNS    map[string]int64 `json:"phase_ns,omitempty"`
	TotalNS    int64            `json:"total_ns,omitempty"`
	WallNS     int64            `json:"wall_ns,omitempty"`
	BytesMoved int64            `json:"bytes_moved,omitempty"`
}

// maxBody bounds a POST /jobs body: 128 Mi keys of ~20 JSON characters
// would blow the memory budget long before this does, but it keeps a
// stray client from buffering unbounded garbage.
const maxBody = 1 << 30

func (co *coordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", co.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", co.handleGet)
	mux.HandleFunc("GET /jobs", co.handleList)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.HandleFunc("POST /shutdown", co.handleShutdown)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (co *coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	j, code, msg := co.submit(req)
	if code != 0 {
		httpError(w, code, "%s", msg)
		return
	}
	if req.Wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gave up; the job keeps running — report its current
			// state and let them poll GET /jobs/{id}.
		}
		writeJSON(w, http.StatusOK, co.statusOf(j))
		return
	}
	writeJSON(w, http.StatusAccepted, co.statusOf(j))
}

func (co *coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	j := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, co.statusOf(j))
}

func (co *coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := co.sortedJobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := co.statusOf(j)
		st.Keys = nil // the listing stays light even with gathered jobs
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (co *coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.snapshotMetrics())
}

func (co *coordinator) handleShutdown(w http.ResponseWriter, r *http.Request) {
	co.requestStop()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// statusOf renders a job's current state.
func (co *coordinator) statusOf(j *job) JobStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Status:   j.state,
		Error:    j.errMsg,
		Algo:     j.desc.Algo,
		N:        j.desc.NTotal,
		WallNS:   j.wallNS,
		Attempts: j.attempts,
	}
	if j.errKind != "" {
		st.ErrorKind = j.errKind
		if j.errPeer >= 0 {
			peer := j.errPeer
			st.ErrorRank = &peer
		}
	}
	if !j.desc.Raw {
		st.Kind = j.desc.Kind
	}
	if j.res != nil {
		st.Count = j.res.Count
		st.First = j.res.First
		st.Last = j.res.Last
		st.Sum = j.res.Sum
		st.Keys = j.res.Keys
		st.TotalNS = j.res.TotalNS
		st.BytesMoved = j.res.BytesMoved
		st.PhaseNS = make(map[string]int64, core.NumPhases)
		for ph := core.Phase(0); ph < core.NumPhases; ph++ {
			st.PhaseNS[ph.String()] = j.res.PhaseNS[ph]
		}
	}
	return st
}
