package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"constable/internal/sim"
)

// WorkerView is the API representation of one registered remote worker.
type WorkerView struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
	// Healthy reports whether the worker is eligible for dispatch. A
	// transport failure marks it unhealthy; a later heartbeat restores it.
	Healthy bool `json:"healthy"`
	// Inflight is the number of jobs currently dispatched to the worker.
	Inflight int `json:"inflight"`
	// Completed counts jobs the worker finished successfully.
	Completed uint64 `json:"completed"`
	// Failures counts transport-level failures (died mid-request, bad
	// envelope) attributed to the worker.
	Failures     uint64    `json:"failures"`
	RegisteredAt time.Time `json:"registered_at"`
	LastSeen     time.Time `json:"last_seen"`
}

// workerSlot tracks one backend's dispatch state inside a MultiBackend: its
// concurrency budget, in-flight count, health and (for remotes) lease
// bookkeeping. All fields are guarded by the owning MultiBackend's mutex,
// except ctx/cancel which are assigned once before the slot is published.
type workerSlot struct {
	id      string
	backend Backend
	remote  bool

	capacity  int
	inflight  int
	healthy   bool
	completed uint64
	failures  uint64

	// consecFails counts consecutive transport failures; suspendedUntil is
	// the earliest instant a heartbeat may restore health again. The
	// exponential suspension prevents a worker that heartbeats fine but
	// fails every dispatch (e.g. a wrong -advertise URL behind NAT) from
	// livelocking the queue in a hot dispatch/fail/requeue loop.
	consecFails    int
	suspendedUntil time.Time

	// ctx is canceled when the slot's lease expires, aborting the expired
	// worker's in-flight requests so their jobs requeue immediately
	// instead of waiting out the full remote request timeout. Graceful
	// deregistration does not cancel it: a live worker drains its
	// in-flight jobs. Nil for the local slot.
	ctx    context.Context
	cancel context.CancelFunc

	name       string
	url        string
	registered time.Time
	lastSeen   time.Time
}

// failureSuspension is the health-restore backoff after the n-th (1-based)
// consecutive transport failure: 500ms doubling up to 30s.
func failureSuspension(n int) time.Duration {
	d := 500 * time.Millisecond
	for i := 1; i < n && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

func (ws *workerSlot) view() WorkerView {
	return WorkerView{
		ID:           ws.id,
		Name:         ws.name,
		URL:          ws.url,
		Capacity:     ws.capacity,
		Healthy:      ws.healthy,
		Inflight:     ws.inflight,
		Completed:    ws.completed,
		Failures:     ws.failures,
		RegisteredAt: ws.registered,
		LastSeen:     ws.lastSeen,
	}
}

// MultiBackend composes a local backend with any number of dynamically
// registered remote workers under capacity-aware dispatch: Execute hands
// each job to the eligible backend with the most free slots (local first on
// ties), tracks per-worker in-flight counts, and does per-worker
// health/failure accounting — a worker whose request fails at the transport
// level is marked unhealthy and excluded from dispatch until a heartbeat
// restores it or its lease expires. Capacity is the sum of the local pool
// and every healthy worker, so the scheduler's dispatcher automatically
// widens as workers register and narrows as they fail.
type MultiBackend struct {
	mu     sync.Mutex
	cond   *sync.Cond
	local  *workerSlot
	slots  map[string]*workerSlot // remote workers by ID
	order  []string               // registration order, for stable listings
	nextID uint64

	// maxBatch is the owning scheduler's chunk-size cap. Above 1 it also
	// doubles each remote slot's dispatch budget (see budgetLocked): the
	// worker can hold one chunk running and one queued, so its pool never
	// drains dry while a finished chunk's response is on the wire.
	maxBatch int

	// onChange, when set (the owning scheduler installs it), is invoked
	// without the lock held whenever total capacity may have changed, so
	// the dispatcher re-evaluates its gate.
	onChange func()

	// resultLookup, when set (the owning scheduler installs its quiet
	// result-tier lookup at Open, before dispatch starts), resolves a
	// JobSpec hash to an already-finished result so a chunk about to
	// dispatch can short-circuit cells whose results landed — via a worker
	// write-back or a peer process sharing the data-dir — after they were
	// submitted. It must be cheap on a miss and must return a caller-owned
	// copy on a hit.
	resultLookup func(hash string) *sim.RunResult
}

// NewMultiBackend returns a MultiBackend dispatching to local (required;
// use a zero-capacity LocalBackend for a dispatch-only server) and to any
// workers registered later.
func NewMultiBackend(local Backend) *MultiBackend {
	m := &MultiBackend{
		local: &workerSlot{
			id:       "local",
			name:     local.Name(),
			backend:  local,
			capacity: local.Capacity(),
			healthy:  true,
		},
		slots: make(map[string]*workerSlot),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Name implements Backend.
func (m *MultiBackend) Name() string { return "multi" }

// Capacity implements Backend: the local pool plus every healthy worker.
func (m *MultiBackend) Capacity() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacityLocked()
}

func (m *MultiBackend) capacityLocked() int {
	total := m.local.capacity
	for _, ws := range m.slots {
		if ws.healthy {
			total += ws.capacity
		}
	}
	return total
}

// budgetLocked is the number of cells the dispatcher may have in flight on
// one slot. For the local pool it is exactly the pool's concurrency. For a
// remote worker under batched dispatch it is double the advertised
// capacity: the extra chunk queues on the worker's private scheduler and
// starts the moment the running chunk finishes, hiding the response round
// trip instead of idling the worker for it.
func (m *MultiBackend) budgetLocked(ws *workerSlot) int {
	if ws.remote && m.maxBatch > 1 {
		return 2 * ws.capacity
	}
	return ws.capacity
}

// DispatchBudget is the total number of cells the dispatcher may have in
// flight across every eligible slot — the gate the scheduler's dispatcher
// fills up to. It exceeds Capacity exactly when batched dispatch
// double-buffers remote workers.
func (m *MultiBackend) DispatchBudget() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.local.capacity
	for _, ws := range m.slots {
		if ws.healthy {
			total += m.budgetLocked(ws)
		}
	}
	return total
}

// AddWorker registers a remote worker and returns its assigned view. The
// new capacity becomes dispatchable immediately.
func (m *MultiBackend) AddWorker(name, url string, capacity int, backend Backend) WorkerView {
	now := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	m.nextID++
	ws := &workerSlot{
		id:         fmt.Sprintf("worker-%d", m.nextID),
		backend:    backend,
		remote:     true,
		capacity:   capacity,
		healthy:    true,
		ctx:        ctx,
		cancel:     cancel,
		name:       name,
		url:        url,
		registered: now,
		lastSeen:   now,
	}
	m.slots[ws.id] = ws
	m.order = append(m.order, ws.id)
	v := ws.view()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.notify()
	return v
}

// RemoveWorker deregisters a worker. Jobs already dispatched to it keep
// running to completion (or to a transport failure, which requeues them);
// no new jobs are dispatched. It reports whether the worker existed.
func (m *MultiBackend) RemoveWorker(id string) bool {
	m.mu.Lock()
	_, ok := m.slots[id]
	if ok {
		delete(m.slots, id)
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if ok {
		m.notify()
	}
	return ok
}

// Heartbeat renews a worker's lease and — once the failure-backoff window
// has passed — restores its health, so a worker demoted by a transient
// transport failure becomes dispatchable again while one that fails every
// dispatch retries at a bounded, decaying rate instead of livelocking the
// queue. It returns the refreshed view, or false for an unknown ID — the
// worker should re-register.
func (m *MultiBackend) Heartbeat(id string) (WorkerView, bool) {
	m.mu.Lock()
	ws, ok := m.slots[id]
	if !ok {
		m.mu.Unlock()
		return WorkerView{}, false
	}
	ws.lastSeen = time.Now()
	restored := false
	if !ws.healthy && time.Now().After(ws.suspendedUntil) {
		ws.healthy = true
		restored = true
	}
	v := ws.view()
	if restored {
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	if restored {
		m.notify()
	}
	return v, true
}

// Worker returns one worker's view by ID.
func (m *MultiBackend) Worker(id string) (WorkerView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws, ok := m.slots[id]
	if !ok {
		return WorkerView{}, false
	}
	return ws.view(), true
}

// Workers lists the registered remote workers in registration order.
func (m *MultiBackend) Workers() []WorkerView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerView, 0, len(m.order))
	for _, id := range m.order {
		if ws, ok := m.slots[id]; ok {
			out = append(out, ws.view())
		}
	}
	return out
}

// expire removes every worker whose lease (last heartbeat) is older than
// ttl, returning the removed views. The scheduler's janitor calls it
// periodically; jobs in flight on an expired worker fail at the transport
// level on their own and requeue.
func (m *MultiBackend) expire(ttl time.Duration) []WorkerView {
	cutoff := time.Now().Add(-ttl)
	var removed []WorkerView
	m.mu.Lock()
	for i := 0; i < len(m.order); {
		id := m.order[i]
		ws := m.slots[id]
		if ws != nil && ws.lastSeen.Before(cutoff) {
			removed = append(removed, ws.view())
			delete(m.slots, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			// An expired worker is presumed dead: abort its in-flight
			// requests now so their jobs requeue immediately instead of
			// waiting out the remote request timeout.
			ws.cancel()
			continue
		}
		i++
	}
	if removed != nil {
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	if removed != nil {
		m.notify()
	}
	return removed
}

func (m *MultiBackend) notify() {
	if m.onChange != nil {
		m.onChange()
	}
}

// reservation is a claim of n in-flight cells on one slot, handed out by
// Reserve and settled by execute (or returned unused by release). The
// scheduler's dispatcher reserves first and pops the queue second, so jobs
// stay cancelable right up to the moment a backend is actually ready for
// them.
type reservation struct {
	m  *MultiBackend
	ws *workerSlot
	n  int
}

// Granted is the number of cells the reservation holds.
func (r *reservation) Granted() int { return r.n }

// shrink returns the unused tail of the reservation (the queue had fewer
// live jobs than the slot had room for).
func (r *reservation) shrink(to int) {
	if to >= r.n {
		return
	}
	r.m.mu.Lock()
	r.ws.inflight -= r.n - to
	r.n = to
	r.m.cond.Broadcast()
	r.m.mu.Unlock()
}

// release gives the whole reservation back without executing anything.
func (r *reservation) release() { r.shrink(0) }

// Reserve picks the eligible slot (healthy, below its dispatch budget) with
// the most free room, local winning ties, and claims up to want cells on it
// — the adaptive chunk size: a worker with three free slots gets a
// three-cell chunk even when forty cells are queued, so no single worker
// hoards the queue. When every eligible backend is saturated it waits for
// room; when no healthy backend exists at all it returns
// ErrBackendUnavailable so the dispatcher parks instead of spinning.
func (m *MultiBackend) Reserve(ctx context.Context, want int) (*reservation, error) {
	if want < 1 {
		want = 1
	}
	unhook := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer unhook()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var best *workerSlot
		bestFree := 0
		// The local slot honors the same failure suspension as workers: a
		// custom Config.Backend that fails at the transport level backs
		// off instead of spinning (sim.Run-backed local pools never
		// return ErrBackendUnavailable, so this never gates them).
		if free := m.local.capacity - m.local.inflight; free > 0 && time.Now().After(m.local.suspendedUntil) {
			best, bestFree = m.local, free
		}
		for _, id := range m.order {
			ws := m.slots[id]
			if ws == nil || !ws.healthy {
				continue
			}
			free := m.budgetLocked(ws) - ws.inflight
			if free <= 0 {
				continue
			}
			if best == nil || free > bestFree {
				best, bestFree = ws, free
			}
		}
		if best != nil {
			// One grant never exceeds the slot's actual concurrency: the
			// remote budget is 2×capacity so that *two* capacity-sized
			// chunks overlap — one running while the other is on the wire
			// or queued worker-side. Granting the whole budget as a single
			// chunk would serialize the round trips the double-buffer
			// exists to hide.
			n := min(want, bestFree, best.capacity)
			best.inflight += n
			return &reservation{m: m, ws: best, n: n}, nil
		}
		if m.capacityLocked() == 0 {
			return nil, fmt.Errorf("%w: no healthy backend", ErrBackendUnavailable)
		}
		m.cond.Wait()
	}
}

// execute runs the chunk on the reserved slot and settles the reservation:
// the in-flight claim is released, per-worker completion/failure accounting
// mirrors what per-cell dispatch always did, and a chunk-level transport
// failure demotes the worker. A remote dispatch also aborts the moment the
// slot's lease expires, so a wedged worker's cells requeue at lease-expiry
// speed rather than at the (chunk-scaled) remote request timeout. The
// returned slice always has one entry per spec: a chunk-level error is
// fanned out to every cell.
func (r *reservation) execute(ctx context.Context, specs []JobSpec, hashes []string) []BatchResult {
	m, ws := r.m, r.ws

	// Store short-circuit: a cell whose result already exists cluster-wide —
	// a worker wrote it back, or a peer process sharing the data-dir saved
	// it, after the cell was submitted — must not burn a backend slot
	// re-simulating it. Probe each hash before dispatch, answer the hits
	// directly, give their slots back, and send only the remainder over the
	// wire. Chunks dispatched before the probe existed behave identically:
	// a nil resultLookup (MultiBackends built outside a scheduler) skips it.
	out := make([]BatchResult, len(specs))
	run := make([]int, 0, len(specs))
	if m.resultLookup != nil {
		for i, h := range hashes {
			if res := m.resultLookup(h); res != nil {
				out[i] = BatchResult{Result: res, CacheHit: true}
				continue
			}
			run = append(run, i)
		}
	} else {
		for i := range specs {
			run = append(run, i)
		}
	}
	if len(run) < len(specs) {
		r.shrink(len(run)) // release the short-circuited cells' claim now
	}
	if len(run) == 0 {
		// The whole chunk was served from the store: no backend exchange
		// happened, so no health or completion accounting applies.
		return out
	}
	subSpecs, subHashes := specs, hashes
	if len(run) < len(specs) {
		subSpecs = make([]JobSpec, len(run))
		subHashes = make([]string, len(run))
		for k, i := range run {
			subSpecs[k] = specs[i]
			subHashes[k] = hashes[i]
		}
	}

	execCtx := ctx
	if ws.remote {
		var cancel context.CancelFunc
		execCtx, cancel = context.WithCancel(ctx)
		stop := context.AfterFunc(ws.ctx, cancel) // lease expiry aborts the request
		defer stop()
		defer cancel()
	}
	var results []BatchResult
	var chunkErr error
	// leaseExpired rewrites an exchange error once the slot's lease — not
	// the caller — killed the context: the failure belongs to the backend,
	// so it must wrap ErrBackendUnavailable for the scheduler to requeue.
	leaseExpired := func(err error) error {
		if err != nil && ctx.Err() == nil && execCtx.Err() != nil {
			return fmt.Errorf("%w: worker %s lease expired mid-chunk: %v", ErrBackendUnavailable, ws.name, err)
		}
		return err
	}
	if len(subSpecs) == 1 {
		// One cell rides the single-dispatch path: batch framing would buy
		// nothing, and older workers without the batch endpoint stay on
		// their native protocol.
		res, err := ws.backend.Execute(execCtx, subSpecs[0], subHashes[0])
		err = leaseExpired(err)
		results = []BatchResult{{Result: res, Err: err}}
		if err != nil && errors.Is(err, ErrBackendUnavailable) {
			chunkErr = err
		}
	} else {
		results, chunkErr = ws.backend.ExecuteBatch(execCtx, subSpecs, subHashes)
		chunkErr = leaseExpired(chunkErr)
	}
	if chunkErr != nil && len(subSpecs) > 1 {
		results = make([]BatchResult, len(subSpecs))
		for i := range results {
			results[i] = BatchResult{Err: chunkErr}
		}
	}
	succeeded, unavailable := 0, 0
	for _, br := range results {
		switch {
		case br.Err == nil:
			succeeded++
		case errors.Is(br.Err, ErrBackendUnavailable):
			unavailable++
		}
	}
	// A chunk-level transport error is the worker's fault; so is a chunk
	// where every single cell came back backend-unavailable — the shape an
	// unreachable worker produces through the per-cell fallback path, or a
	// broken worker answering 200 with nothing but requeue items. Without
	// this the failure-backoff machinery never engages for batches and the
	// dispatcher hot-loops dispatch→fail→requeue against the same worker.
	// A chunk with at least one delivered outcome keeps the worker healthy:
	// it demonstrably answered, and any requeue-marked stragglers retry as
	// smaller chunks that fall through to this same accounting.
	// ...unless the caller canceled the exchange: the resulting transport
	// errors are the canceler's doing, not the worker's, and demoting a
	// healthy worker for them would knock capacity out of the cluster.
	callerCanceled := ctx.Err() != nil
	transportFailure := !callerCanceled &&
		((chunkErr != nil && errors.Is(chunkErr, ErrBackendUnavailable)) ||
			unavailable == len(results))

	m.mu.Lock()
	ws.inflight -= r.n
	capacityChanged := false
	switch {
	case transportFailure:
		ws.failures++
		ws.consecFails++
		d := failureSuspension(ws.consecFails)
		ws.suspendedUntil = time.Now().Add(d)
		if ws.remote && ws.healthy {
			ws.healthy = false
			capacityChanged = true
		}
		// Wake the dispatch gate when the suspension lapses — the local
		// slot has no heartbeat to restore it, and a suspended-but-counted
		// slot must not park the queue past its backoff.
		time.AfterFunc(d, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
			m.notify()
		})
	case callerCanceled:
		// The caller abandoned the exchange mid-flight: the slot neither
		// completed nor failed the cell, so there is no health signal.
	default:
		ws.completed += uint64(succeeded)
		if succeeded > 0 {
			// The backend delivered results: the transport is healthy again.
			ws.consecFails = 0
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if capacityChanged {
		m.notify()
	}
	for k, i := range run {
		out[i] = results[k]
	}
	return out
}

// Execute implements Backend: a one-cell chunk on the best eligible slot.
// A transport-level failure (ErrBackendUnavailable) on a remote worker
// marks that worker unhealthy — removing its capacity from dispatch until a
// heartbeat restores it after the failure-backoff window — and propagates
// to the scheduler, which requeues the job.
func (m *MultiBackend) Execute(ctx context.Context, spec JobSpec, hash string) (*sim.RunResult, error) {
	r, err := m.Reserve(ctx, 1)
	if err != nil {
		return nil, err
	}
	results := r.execute(ctx, []JobSpec{spec}, []string{hash})
	return results[0].Result, results[0].Err
}

// ExecuteBatch implements Backend by carving the chunk into sub-chunks
// sized to whatever slot Reserve grants, sequentially. The scheduler's
// dispatcher does not use this path — it reserves first and pops the queue
// second — but embedders driving a MultiBackend directly get correct
// chunked semantics.
func (m *MultiBackend) ExecuteBatch(ctx context.Context, specs []JobSpec, hashes []string) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(specs))
	for off := 0; off < len(specs); {
		r, err := m.Reserve(ctx, len(specs)-off)
		if err != nil {
			return nil, err
		}
		n := r.Granted()
		out = append(out, r.execute(ctx, specs[off:off+n], hashes[off:off+n])...)
		off += n
	}
	return out, nil
}
