// Package worker implements the constable-worker runtime: a process that
// registers with a constable-server, receives JobSpecs from it — one per
// /execute request or a whole dispatch chunk per /execute/batch request —
// simulates them on a local bounded pool, and answers with full-fidelity
// sim.ResultEnvelope documents that flow into the server's LRU cache and
// content-addressed store exactly like locally-executed results.
//
// Protocol (server side documented in docs/API.md):
//
//   - The worker POSTs {name, url, capacity} to {server}/v1/workers and
//     keeps the returned lease alive with POST
//     {server}/v1/workers/{id}/heartbeat every Options.Heartbeat. A 404 on
//     heartbeat means the lease expired (e.g. the server restarted); the
//     worker re-registers.
//   - The server dispatches work by POSTing a service.ExecuteRequest to
//     {url}/execute, or a whole chunk as a service.BatchExecuteRequest to
//     {url}/execute/batch. The worker re-derives each spec's canonical
//     hash and refuses a dispatch whose recorded hash does not match — the
//     same alias defense the result store applies on load — then simulates
//     and replies 200 with a sim.ResultEnvelope per cell (or the cell's
//     own error; a single /execute answers 422 for a simulation failure).
//   - On shutdown the worker DELETEs its registration so the server stops
//     dispatching to it before the listener closes.
//
// Inside the worker the simulations run through a private
// service.Scheduler, so a worker also dedups identical in-flight specs and
// serves repeats from its own LRU.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
)

// Options parameterizes a Worker.
type Options struct {
	// Server is the base URL of the constable-server to register with,
	// e.g. http://127.0.0.1:8080.
	Server string
	// Advertise is the URL at which the server can reach this worker's
	// handler, e.g. http://10.0.0.5:8081. It must be set before Register.
	Advertise string
	// Name identifies the worker in listings (default: Advertise).
	Name string
	// Capacity is the number of concurrent simulations the worker runs and
	// advertises (default runtime.GOMAXPROCS(0)).
	Capacity int
	// Heartbeat is the lease-renewal interval (default 5s). It must be
	// comfortably under the server's worker TTL.
	Heartbeat time.Duration
	// CacheSize is the worker-local LRU capacity (default 1024 entries).
	CacheSize int
	// Run overrides the simulation function (default sim.Run) — used by
	// benchmarks that isolate orchestration cost and by embedders with a
	// custom execution path. Results still flow through the worker's local
	// scheduler (dedup, LRU) and the envelope protocol.
	Run func(sim.Options) (*sim.RunResult, error)
	// MaxBody caps the worker's /execute and /execute/batch request bodies
	// in bytes (default 64 MiB). Dispatch chunks are JSON-small; the cap
	// exists so a confused or hostile peer cannot balloon worker memory.
	MaxBody int64
	// ResultsServer is the base URL of the cluster-wide result store the
	// worker consults before simulating and writes back to on completion
	// (GET/PUT /v1/results/{hash}). Empty means Server — the common
	// topology, where the dispatching server is also the result authority;
	// point it elsewhere when dispatch and storage are split across
	// servers. "none" disables sharing: the worker simulates everything it
	// is dispatched, relying only on its private LRU.
	ResultsServer string
}

// Worker is one remote execution node. Create with New, expose Handler()
// on the advertised address, then either call Run (register + heartbeat
// until the context ends) or drive Register/Deregister manually.
type Worker struct {
	opts   Options
	sched  *service.Scheduler
	client *http.Client

	mu sync.Mutex
	id string // registered worker ID, "" when unregistered
}

// New validates opts, applies defaults, and returns a Worker with its local
// simulation pool started.
func New(opts Options) (*Worker, error) {
	if opts.Server == "" {
		return nil, errors.New("worker: Options.Server is required")
	}
	if opts.Capacity <= 0 {
		opts.Capacity = runtime.GOMAXPROCS(0)
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 5 * time.Second
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 64 << 20
	}
	w := &Worker{
		opts:   opts,
		client: &http.Client{Timeout: 10 * time.Second},
	}
	cfg := service.Config{Workers: opts.Capacity, CacheSize: opts.CacheSize}
	// The cluster-wide result share: a dispatched cell that misses the
	// worker's private LRU is looked up on the results server before
	// simulating (hash-verified envelope; a tampered or aliased one is
	// rejected and the cell simulates locally), and every freshly simulated
	// result is written back — so N workers simulate a popular cell once,
	// not N times.
	if share := opts.ResultsServer; share != "none" {
		if share == "" {
			share = opts.Server
		}
		cfg.Share = service.NewRemoteResultStore(share)
	}
	if opts.Run != nil {
		cfg.Backend = service.NewLocalBackend(opts.Capacity, opts.Run)
	}
	sched, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	w.sched = sched
	return w, nil
}

// ID returns the server-assigned worker ID, or "" before registration.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Scheduler exposes the worker's local scheduler (metrics, shutdown).
func (w *Worker) Scheduler() *service.Scheduler { return w.sched }

// Handler returns the worker's HTTP surface:
//
//	POST /execute         run one service.ExecuteRequest, answer a sim.ResultEnvelope
//	POST /execute/batch   run a service.BatchExecuteRequest chunk, answer per-cell
//	GET  /healthz         liveness probe
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /execute", w.handleExecute)
	mux.HandleFunc("POST /execute/batch", w.handleExecuteBatch)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rw.Write([]byte("ok\n"))
	})
	return mux
}

func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	var req service.ExecuteRequest
	if !w.readJSON(rw, r, &req) {
		return
	}
	hash, err := req.Spec.Hash()
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Alias defense, mirroring the store's Load and the server's envelope
	// check: a dispatch whose recorded hash does not match the spec it
	// carries was corrupted somewhere, and simulating it would file the
	// result under the wrong content address.
	if req.Hash != "" && req.Hash != hash {
		writeJSON(rw, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("worker: dispatched hash %.12s does not match spec hash %.12s", req.Hash, hash),
		})
		return
	}
	j, err := w.sched.Submit(req.Spec)
	if err != nil {
		if errors.Is(err, service.ErrShuttingDown) {
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	res, err := j.Wait(r.Context())
	if err != nil {
		if errors.Is(err, r.Context().Err()) {
			// The dispatching server aborted the request (lease-expiry
			// cancel, request timeout, server death) and has already
			// requeued the cell elsewhere: mirror the server's ?wait=1
			// disconnect handling and drop this dispatch's interest, so a
			// queued sole-interest job leaves the pool instead of
			// simulating for no one (a running one finishes and stays in
			// the worker-local cache). The 503 is written for symmetry —
			// the connection is usually already dead.
			w.sched.Abandon(j.ID)
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "dispatch aborted: " + err.Error()})
			return
		}
		// A worker shutting down (or canceling its queue as part of it) is
		// the worker's condition, not the job's: 503 makes the server wrap
		// it as backend-unavailable and requeue the cell elsewhere, so a
		// graceful worker drain never fails a sweep.
		if errors.Is(err, service.ErrShuttingDown) || errors.Is(err, service.ErrCanceled) {
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
			return
		}
		// The simulation itself failed; 422 tells the server this is the
		// job's error, not the worker's, so it must not requeue.
		writeJSON(rw, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(rw, http.StatusOK, sim.NewResultEnvelope(hash, res))
}

// handleExecuteBatch runs a whole dispatch chunk through the worker's
// private scheduler and answers item-for-item: the chunk's cells are all
// submitted up front (so the local pool pipelines them at its own
// concurrency and identical cells dedup), then collected in order. Failure
// granularity is the cell, mirroring the single-dispatch status mapping:
// a cell's own simulation failure is terminal for that cell alone
// (requeue=false), a worker-side condition (draining pool, corrupted
// dispatch item) marks just that cell requeue=true, and only a chunk that
// cannot be accepted at all — malformed JSON, or the whole pool already
// shutting down — fails the request itself.
func (w *Worker) handleExecuteBatch(rw http.ResponseWriter, r *http.Request) {
	var req service.BatchExecuteRequest
	if !w.readJSON(rw, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": "empty batch"})
		return
	}
	items := make([]service.BatchExecuteItem, len(req.Items))
	jobs := make([]*service.Job, len(req.Items))
	hashes := make([]string, len(req.Items))
	abandonFrom := func(i int) {
		for ; i < len(jobs); i++ {
			if jobs[i] != nil {
				w.sched.Abandon(jobs[i].ID)
			}
		}
	}
	for i, it := range req.Items {
		hash, err := it.Spec.Hash()
		if err != nil {
			items[i] = service.BatchExecuteItem{Error: err.Error()}
			continue
		}
		// Alias defense per cell, mirroring handleExecute: a corrupted item
		// must not simulate under the wrong content address — but unlike a
		// fully corrupt request it poisons only itself, and the server may
		// retry the cell over an honest transport.
		if it.Hash != "" && it.Hash != hash {
			items[i] = service.BatchExecuteItem{
				Error:   fmt.Sprintf("worker: dispatched hash %.12s does not match spec hash %.12s", it.Hash, hash),
				Requeue: true,
			}
			continue
		}
		j, err := w.sched.Submit(it.Spec)
		if err != nil {
			if errors.Is(err, service.ErrShuttingDown) {
				// The pool is draining: nothing in this chunk can run here.
				// Drop interest in the cells already queued and let the
				// server requeue the whole chunk elsewhere.
				abandonFrom(0)
				writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
				return
			}
			items[i] = service.BatchExecuteItem{Error: err.Error()}
			continue
		}
		jobs[i] = j
		hashes[i] = hash
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		res, err := j.Wait(r.Context())
		if err != nil {
			if errors.Is(err, r.Context().Err()) {
				// The dispatching server aborted the chunk (lease-expiry
				// cancel, deadline, server death) and has already requeued
				// the cells elsewhere: drop this dispatch's interest in
				// everything still pending, so queued sole-interest cells
				// leave the pool instead of simulating for no one.
				abandonFrom(i)
				writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "dispatch aborted: " + err.Error()})
				return
			}
			if errors.Is(err, service.ErrShuttingDown) || errors.Is(err, service.ErrCanceled) {
				// The worker's condition, not the cell's: this cell should
				// requeue elsewhere while finished siblings still land.
				items[i] = service.BatchExecuteItem{Error: err.Error(), Requeue: true}
				continue
			}
			items[i] = service.BatchExecuteItem{Error: err.Error()}
			continue
		}
		env := sim.NewResultEnvelope(hashes[i], res)
		items[i] = service.BatchExecuteItem{Envelope: &env}
	}
	writeJSON(rw, http.StatusOK, service.BatchExecuteResponse{Items: items})
}

// Register announces the worker to the server and stores the assigned ID.
func (w *Worker) Register(ctx context.Context) error {
	if w.opts.Advertise == "" {
		return errors.New("worker: Options.Advertise is required to register")
	}
	body, _ := json.Marshal(map[string]any{
		"name":     w.opts.Name,
		"url":      w.opts.Advertise,
		"capacity": w.opts.Capacity,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Server+"/v1/workers", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("worker: register: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("worker: register with %s: %w", w.opts.Server, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("worker: register with %s: HTTP %d: %s", w.opts.Server, resp.StatusCode, bytes.TrimSpace(b))
	}
	var v service.WorkerView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("worker: register with %s: decode response: %w", w.opts.Server, err)
	}
	w.mu.Lock()
	w.id = v.ID
	w.mu.Unlock()
	return nil
}

// heartbeat renews the lease once. A 404 (lease expired, server restarted)
// re-registers; transport errors are returned for the caller to retry on
// the next tick.
func (w *Worker) heartbeat(ctx context.Context) error {
	id := w.ID()
	if id == "" {
		return w.Register(ctx)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/workers/%s/heartbeat", w.opts.Server, id), nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		w.mu.Lock()
		w.id = ""
		w.mu.Unlock()
		return w.Register(ctx)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker: heartbeat: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Deregister removes the worker from the server's dispatch set.
func (w *Worker) Deregister(ctx context.Context) error {
	id := w.ID()
	if id == "" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		fmt.Sprintf("%s/v1/workers/%s", w.opts.Server, id), nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.mu.Lock()
	w.id = ""
	w.mu.Unlock()
	return nil
}

// heartbeatInterval returns one lease-renewal (or registration-retry)
// delay: d with ±15% uniform jitter. A fleet restarted by one orchestrator
// tick would otherwise renew in lockstep forever — every worker's fixed
// Ticker firing at the same instant against one server — so each wait is
// drawn fresh and the fleet decorrelates within a few periods.
func heartbeatInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.85 + 0.3*rand.Float64()))
}

// sleepHeartbeat waits one jittered heartbeat interval, or until ctx ends.
func sleepHeartbeat(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(heartbeatInterval(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Run registers (retrying until the server answers — the worker may start
// before the server) and then heartbeats until ctx ends, when it
// deregisters and returns. Registration retries and lease renewals share
// one jittered cadence (heartbeatInterval): the old split — a one-shot
// time.After for the retry path, a fixed Ticker afterwards — renewed in
// lockstep across a restarted fleet. Run owns only the control-plane loop:
// the caller serves Handler() separately and drains the local pool itself
// (Close, or Scheduler().Shutdown for a bounded drain) once Run returns,
// as cmd/constable-worker does.
func (w *Worker) Run(ctx context.Context) error {
	for w.ID() == "" {
		if err := w.Register(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := sleepHeartbeat(ctx, w.opts.Heartbeat); err != nil {
			return err
		}
	}
	for {
		if err := sleepHeartbeat(ctx, w.opts.Heartbeat); err != nil {
			// Deregister on a fresh context: ctx is already dead.
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			derr := w.Deregister(dctx)
			cancel()
			return derr
		}
		// Best-effort: a flaky heartbeat retries next tick, and the
		// server restores health on the first one that lands.
		_ = w.heartbeat(ctx)
	}
}

// Close drains the worker's local simulation pool.
func (w *Worker) Close() error { return w.sched.Close() }

// readJSON decodes a dispatch body under the worker's MaxBody cap, writing
// 413 (oversized) or 400 (bad JSON) itself and reporting success.
func (w *Worker) readJSON(rw http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(rw, r.Body, w.opts.MaxBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeJSON(rw, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)})
			return false
		}
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": "invalid JSON: " + err.Error()})
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
