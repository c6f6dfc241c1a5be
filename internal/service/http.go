package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"constable/internal/sim"
	"constable/internal/workload"
)

// sweepStreamLine is one NDJSON line of GET /v1/sweeps/{id}/events: either
// a per-cell event or, as the final line, the sweep's terminal view.
type sweepStreamLine struct {
	Cell  *SweepEvent `json:"cell,omitempty"`
	Sweep *SweepView  `json:"sweep,omitempty"`
}

// JobView is the API representation of a job.
type JobView struct {
	ID     string    `json:"id"`
	Hash   string    `json:"hash"`
	Status JobStatus `json:"status"`
	// Class is the fair-share scheduling class the job queues under;
	// QueuePosition its 1-based position within that class's queue (0 once
	// it is running or finished — and in every terminal response). Sweep
	// tags a sweep cell with its owning sweep's ID.
	Class         string         `json:"class,omitempty"`
	QueuePosition int            `json:"queue_position,omitempty"`
	Sweep         string         `json:"sweep,omitempty"`
	Spec          JobSpec        `json:"spec"`
	CacheHit      bool           `json:"cache_hit,omitempty"`
	Error         string         `json:"error,omitempty"`
	Result        *sim.RunResult `json:"result,omitempty"`
}

func (s *Scheduler) viewOf(j *Job) JobView {
	v := JobView{ID: j.ID, Hash: j.Hash, Spec: j.Spec, Status: j.Status(), CacheHit: j.CacheHit(),
		Class: j.Class, Sweep: j.SweepID, QueuePosition: s.QueuePosition(j.ID)}
	res, err := j.Result()
	if err != nil {
		v.Error = err.Error()
	}
	v.Result = res
	return v
}

// SweepRequest is the POST /v1/sweeps body. Either give the explicit cell
// matrix in Specs, or let Workloads × Mechanisms expand into one (one row
// per workload, one column per mechanism, sharing Instructions/Threads/APX).
type SweepRequest struct {
	Specs [][]JobSpec `json:"specs,omitempty"`

	Workloads    []string `json:"workloads,omitempty"`
	Mechanisms   []string `json:"mechanisms,omitempty"`
	Instructions uint64   `json:"instructions,omitempty"`
	Threads      int      `json:"threads,omitempty"`
	APX          bool     `json:"apx,omitempty"`

	// FailFast cancels the rest of the sweep after the first failed cell.
	FailFast bool `json:"fail_fast,omitempty"`

	// Tenant scopes the sweep's batch scheduling class ("batch:<tenant>"),
	// so one tenant's sweeps fair-share against another's. The
	// X-Constable-Tenant header overrides it; empty uses the shared batch
	// class.
	Tenant string `json:"tenant,omitempty"`
}

// matrix expands the request into the cell matrix handed to StartSweep.
func (req SweepRequest) matrix() ([][]JobSpec, error) {
	if len(req.Specs) > 0 {
		return req.Specs, nil
	}
	if len(req.Workloads) == 0 || len(req.Mechanisms) == 0 {
		return nil, errors.New("sweep needs either specs or workloads+mechanisms")
	}
	m := make([][]JobSpec, len(req.Workloads))
	for wi, wl := range req.Workloads {
		row := make([]JobSpec, len(req.Mechanisms))
		for ci, mech := range req.Mechanisms {
			row[ci] = JobSpec{
				Workload:     wl,
				Mechanism:    mech,
				Instructions: req.Instructions,
				Threads:      req.Threads,
				APX:          req.APX,
			}
		}
		m[wi] = row
	}
	return m, nil
}

// apiRoute pairs one registered pattern with its handler. The route table
// built by routesFor is the single source of truth for the API surface:
// NewHandler registers exactly these patterns, APIRoutes exposes them, and
// a test cross-checks them against docs/API.md so the reference cannot
// drift from the code.
type apiRoute struct {
	pattern string
	handler http.HandlerFunc
}

// APIRoutes lists every route pattern NewHandler registers, in
// documentation order.
func APIRoutes() []string {
	routes := routesFor(nil)
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}

// NewHandler returns the service's HTTP API over s:
//
//	POST /v1/runs                     submit one JobSpec; ?wait=1 blocks until finished
//	POST /v1/runs/batch               submit a JSON array of JobSpecs
//	GET  /v1/runs/{id}                poll one job
//	GET  /v1/runs/{id}/result         the finished run's full RunResult document
//	DELETE /v1/runs/{id}              cancel a queued, unshared job
//	POST /v1/sweeps                   submit a workload×config matrix as one sweep
//	GET  /v1/sweeps/{id}              poll a sweep's aggregate state
//	GET  /v1/sweeps/{id}/events       NDJSON stream of per-cell events (?results=1
//	                                  embeds each cell's full RunResult)
//	DELETE /v1/sweeps/{id}            cancel a sweep
//	GET  /v1/results/{hash}           cluster result store: envelope by JobSpec hash
//	PUT  /v1/results/{hash}           worker write-back (hash-verified, idempotent)
//	POST /v1/workers                  register a remote worker {name, url, capacity}
//	GET  /v1/workers                  list registered workers
//	POST /v1/workers/{id}/heartbeat   renew a worker's lease
//	DELETE /v1/workers/{id}           deregister a worker
//	GET  /v1/workloads                list the built-in workload suite
//	GET  /v1/mechanisms               list mechanism presets (name, description)
//	GET  /metrics                     plaintext scheduler metrics
//	GET  /healthz                     liveness probe
//
// See docs/API.md for the complete reference with request/response examples.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routesFor(s) {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return mux
}

// routesFor builds the route table over s. The handlers are closures that
// only dereference s when invoked, so building the table with a nil
// scheduler (APIRoutes) is safe.
func routesFor(s *Scheduler) []apiRoute {
	return []apiRoute{
		{"POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
			var spec JobSpec
			if !readJSON(w, r, s.maxBody, &spec) {
				return
			}
			class, ok := requestTenant(w, r, spec.Tenant)
			if !ok {
				return
			}
			j, err := s.SubmitWith(spec, SubmitOptions{Class: class})
			if err != nil {
				writeSubmitError(w, err, "")
				return
			}
			status := http.StatusAccepted
			if r.URL.Query().Get("wait") != "" {
				if _, err := j.Wait(r.Context()); err != nil && errors.Is(err, r.Context().Err()) {
					// The waiting client is gone (disconnect or timeout): drop
					// its interest so a queued job nobody else shares is
					// canceled instead of simulating for no one. Shared/deduped
					// jobs keep running for their remaining submitters.
					s.Abandon(j.ID)
					httpError(w, http.StatusGatewayTimeout, "wait interrupted: "+err.Error())
					return
				}
				status = http.StatusOK
			} else if j.Status() == StatusDone {
				status = http.StatusOK // served from cache
			}
			writeJSON(w, status, s.viewOf(j))
		}},

		{"POST /v1/runs/batch", func(w http.ResponseWriter, r *http.Request) {
			var specs []JobSpec
			if !readJSON(w, r, s.maxBody, &specs) {
				return
			}
			if len(specs) == 0 {
				httpError(w, http.StatusBadRequest, "empty batch")
				return
			}
			views := make([]JobView, 0, len(specs))
			for i, spec := range specs {
				class, ok := requestTenant(w, r, spec.Tenant)
				if !ok {
					return
				}
				j, err := s.SubmitWith(spec, SubmitOptions{Class: class})
				if err != nil {
					writeSubmitError(w, err, "spec "+strconv.Itoa(i)+": ")
					return
				}
				views = append(views, s.viewOf(j))
			}
			writeJSON(w, http.StatusAccepted, views)
		}},

		{"GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
			j, ok := s.Get(r.PathValue("id"))
			if !ok {
				httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
				return
			}
			writeJSON(w, http.StatusOK, s.viewOf(j))
		}},

		{"GET /v1/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			j, ok := s.Get(id)
			if !ok {
				httpError(w, http.StatusNotFound, "unknown job "+id)
				return
			}
			res, err := j.Result()
			switch {
			case err != nil:
				httpError(w, http.StatusUnprocessableEntity, "job "+id+" failed: "+err.Error())
			case res == nil:
				httpError(w, http.StatusConflict, "job "+id+" is "+string(j.Status())+"; result not available yet")
			default:
				writeJSON(w, http.StatusOK, res)
			}
		}},

		{"DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if _, ok := s.Get(id); !ok {
				httpError(w, http.StatusNotFound, "unknown job "+id)
				return
			}
			if !s.Cancel(id) {
				httpError(w, http.StatusConflict, "job "+id+" was not canceled: it is running, finished, or shared by other submitters")
				return
			}
			j, _ := s.Get(id)
			writeJSON(w, http.StatusOK, s.viewOf(j))
		}},

		{"POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
			var req SweepRequest
			if !readJSON(w, r, s.maxBody, &req) {
				return
			}
			matrix, err := req.matrix()
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			tenant, ok := requestTenant(w, r, req.Tenant)
			if !ok {
				return
			}
			class := "" // StartSweep defaults to ClassBatch
			if tenant != "" {
				class = ClassBatch + ":" + tenant
			}
			// The sweep belongs to the server, not to this request: it keeps
			// running after the submitting connection closes and is canceled
			// only by DELETE (or scheduler shutdown).
			sw, err := s.StartSweep(context.Background(), matrix, SweepOptions{FailFast: req.FailFast, Class: class})
			if err != nil {
				writeSubmitError(w, err, "")
				return
			}
			writeJSON(w, http.StatusAccepted, sw.View())
		}},

		{"GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
			sw, ok := s.GetSweep(r.PathValue("id"))
			if !ok {
				httpError(w, http.StatusNotFound, "unknown sweep "+r.PathValue("id"))
				return
			}
			writeJSON(w, http.StatusOK, sw.View())
		}},

		{"GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
			sw, ok := s.GetSweep(r.PathValue("id"))
			if !ok {
				httpError(w, http.StatusNotFound, "unknown sweep "+r.PathValue("id"))
				return
			}
			includeResults := r.URL.Query().Get("results") != ""
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			flusher, _ := w.(http.Flusher)
			enc := json.NewEncoder(w)
			// Replays history, then follows live; one JSON object per line,
			// flushed per cell so clients see cells as they complete. The final
			// line is the sweep's terminal aggregate view.
			err := sw.Stream(r.Context(), includeResults, func(ev SweepEvent) error {
				if err := enc.Encode(sweepStreamLine{Cell: &ev}); err != nil {
					return err
				}
				if flusher != nil {
					flusher.Flush()
				}
				return nil
			})
			if err != nil {
				return // client disconnected mid-stream
			}
			v := sw.View()
			enc.Encode(sweepStreamLine{Sweep: &v})
			if flusher != nil {
				flusher.Flush()
			}
		}},

		{"DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
			sw, ok := s.GetSweep(r.PathValue("id"))
			if !ok {
				httpError(w, http.StatusNotFound, "unknown sweep "+r.PathValue("id"))
				return
			}
			sw.Cancel()
			writeJSON(w, http.StatusOK, sw.View())
		}},

		{"GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
			// The cluster-wide result store, keyed by JobSpec content hash:
			// workers consult it before simulating a dispatched cell, so a
			// popular cell is simulated once per cluster, not once per
			// worker. A quiet read of the LRU and the persistent store: the
			// endpoint keeps its own store_remote counters, and serving a
			// peer must not move the local cache and store hit rates. The
			// envelope's recorded hash lets the caller verify what it got
			// against what it asked for.
			hash := r.PathValue("hash")
			res := s.results.lookup(hash, false)
			if res == nil {
				s.metrics.remoteMisses.Add(1)
				httpError(w, http.StatusNotFound, "no result for hash "+hash)
				return
			}
			s.metrics.remoteHits.Add(1)
			writeJSON(w, http.StatusOK, sim.NewResultEnvelope(hash, res))
		}},

		{"PUT /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
			// Worker write-back. The envelope is verified on receipt — schema,
			// presence, and recorded hash against the URL's hash — exactly as
			// the store verifies on load, so a confused or malicious writer
			// cannot file a result under someone else's content address. The
			// PUT is idempotent: repeats overwrite with identical content and
			// answer 200 instead of 201.
			hash := r.PathValue("hash")
			var env sim.ResultEnvelope
			if !readJSON(w, r, s.maxBody, &env) {
				return
			}
			res, err := env.Open(hash)
			if err != nil {
				s.metrics.remoteRejected.Add(1)
				httpError(w, http.StatusBadRequest, "rejected write-back: "+err.Error())
				return
			}
			existed := s.results.lookup(hash, false) != nil
			s.results.put(hash, res, false)
			s.metrics.remoteWritebacks.Add(1)
			status := http.StatusCreated
			if existed {
				status = http.StatusOK
			}
			writeJSON(w, status, struct {
				Hash   string `json:"hash"`
				Stored bool   `json:"stored"`
				Dedup  bool   `json:"dedup,omitempty"`
			}{hash, true, existed})
		}},

		{"POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Name     string `json:"name"`
				URL      string `json:"url"`
				Capacity int    `json:"capacity"`
			}
			if !readJSON(w, r, s.maxBody, &req) {
				return
			}
			v, err := s.RegisterWorker(req.Name, req.URL, req.Capacity)
			if err != nil {
				httpError(w, submitStatus(err), err.Error())
				return
			}
			writeJSON(w, http.StatusCreated, v)
		}},

		{"GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, s.Workers())
		}},

		{"POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
			v, ok := s.HeartbeatWorker(r.PathValue("id"))
			if !ok {
				// Unknown lease — expired or never registered. The worker
				// reacts by re-registering.
				httpError(w, http.StatusNotFound, "unknown worker "+r.PathValue("id"))
				return
			}
			writeJSON(w, http.StatusOK, v)
		}},

		{"DELETE /v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if !s.DeregisterWorker(id) {
				httpError(w, http.StatusNotFound, "unknown worker "+id)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"id": id, "deregistered": true})
		}},

		{"GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
			type wl struct {
				Name     string `json:"name"`
				Category string `json:"category"`
			}
			suite := workload.Suite()
			out := make([]wl, len(suite))
			for i, spec := range suite {
				out[i] = wl{Name: spec.Name, Category: string(spec.Category)}
			}
			writeJSON(w, http.StatusOK, out)
		}},

		{"GET /v1/mechanisms", func(w http.ResponseWriter, r *http.Request) {
			type mech struct {
				Name        string `json:"name"`
				Description string `json:"description"`
			}
			presets := sim.Mechanisms()
			out := struct {
				Presets []mech              `json:"presets"`
				Axes    []sim.MechanismAxis `json:"axes"`
			}{Presets: make([]mech, len(presets)), Axes: sim.MechanismAxes()}
			for i, p := range presets {
				out.Presets[i] = mech{Name: p.Name, Description: p.Description}
			}
			writeJSON(w, http.StatusOK, out)
		}},

		{"GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.Metrics().WriteTo(w)
		}},

		{"GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte("ok\n"))
		}},
	}
}

// Serve runs the API on addr until the server errors or ctx-free shutdown is
// handled by the caller via the returned *http.Server.
func Serve(addr string, s *Scheduler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           NewHandler(s),
		ReadHeaderTimeout: 10 * time.Second,
	}
}

func submitStatus(err error) int {
	if errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError maps a Submit/StartSweep error onto the wire. Admission
// refusals become 429 with a Retry-After header carrying the scheduler's
// drain-time estimate — the contract that lets a loaded server shed
// interactive traffic politely; everything else goes through submitStatus.
func writeSubmitError(w http.ResponseWriter, err error, prefix string) {
	var qf *QueueFullError
	if errors.As(err, &qf) {
		w.Header().Set("Retry-After", strconv.Itoa(int(qf.RetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, prefix+err.Error())
		return
	}
	httpError(w, submitStatus(err), prefix+err.Error())
}

// requestTenant resolves a submission's tenant/class override: the
// X-Constable-Tenant header wins over the JSON field; both must satisfy
// the tenant-name pattern. On a bad name it writes the 400 itself and
// reports false; an empty result with ok=true means "use the path
// default".
func requestTenant(w http.ResponseWriter, r *http.Request, fromJSON string) (string, bool) {
	tenant := r.Header.Get("X-Constable-Tenant")
	if tenant == "" {
		tenant = fromJSON
	}
	if tenant == "" {
		return "", true
	}
	if !validTenant(tenant) {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("invalid tenant %q: want 1-32 characters of [A-Za-z0-9._-]", tenant))
		return "", false
	}
	return tenant, true
}

// readJSON decodes the request body into v under a byte limit, writing the
// error response itself (413 for an oversized body, 400 for bad JSON) and
// reporting whether decoding succeeded. Every JSON-accepting handler goes
// through it: an unbounded decode would let one request balloon server
// memory with a multi-gigabyte body.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
