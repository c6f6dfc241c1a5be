package service

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"runtime"
	"sync"
	"time"

	"constable/internal/sim"
)

// JobStatus is the lifecycle state of a submitted job.
type JobStatus string

// Job lifecycle: Queued → Running → Done | Failed; Queued → Canceled.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Job tracks one submitted JobSpec through the scheduler. All fields are
// owned by the scheduler; read them through the accessor methods.
type Job struct {
	ID   string
	Hash string
	Spec JobSpec // canonical form

	// Class is the fair-share scheduling class the job was submitted under
	// (ClassInteractive unless the submitter said otherwise); SweepID tags
	// a sweep cell with its owning sweep. Both are scheduling attributes —
	// they never enter the spec's content hash — and are immutable after
	// Submit.
	Class   string
	SweepID string

	mu       sync.Mutex
	status   JobStatus
	result   *sim.RunResult
	err      error
	cacheHit bool

	// refs counts the submitters still interested in this job (initial
	// submit plus each deduped duplicate, minus Abandon calls). Owned by
	// the scheduler and guarded by the scheduler's mutex, not j.mu.
	refs int

	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the simulation result and error once the job has finished;
// before that it returns (nil, nil). The result is a deep copy: submitters
// deduped onto one job (and repeated Result calls) each get an independent
// document, so no caller's mutation can reach another's — the same isolation
// the result cache and store provide.
func (j *Job) Result() (*sim.RunResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result.Clone(), j.err
}

// terminalErr returns the job's error without copying the result — for
// in-package callers that only need the outcome (the sweep drainers).
func (j *Job) terminalErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// CacheHit reports whether the job was served from the result cache without
// simulating.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is canceled, then returns the
// job's result.
func (j *Job) Wait(ctx context.Context) (*sim.RunResult, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (j *Job) finish(res *sim.RunResult, err error, status JobStatus, cacheHit bool) {
	j.mu.Lock()
	j.result = res
	j.err = err
	j.status = status
	j.cacheHit = cacheHit
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// ErrShuttingDown is returned by Submit after Shutdown or Close has begun.
var ErrShuttingDown = errors.New("service: scheduler is shutting down")

// ErrCanceled is the terminal error of a job canceled while queued.
var ErrCanceled = errors.New("service: job canceled")

// Config parameterizes a Scheduler.
type Config struct {
	// Workers bounds the number of concurrent local simulations. Zero
	// selects the default (runtime.GOMAXPROCS(0)); a negative value
	// disables local execution entirely, turning the scheduler into a pure
	// dispatcher whose jobs all run on registered remote workers.
	Workers int
	// Backend overrides the execution backend. Nil (the default) builds a
	// MultiBackend over an in-process LocalBackend with Workers slots —
	// remote workers registered at runtime add capacity to it. A non-Multi
	// backend is wrapped in a MultiBackend so worker registration always
	// works.
	Backend Backend
	// WorkerTTL is how long a registered remote worker may go without a
	// heartbeat before it is expired and its capacity removed (default
	// 15s). In-flight jobs on an expired worker fail at the transport
	// level and requeue.
	WorkerTTL time.Duration
	// MaxBatch caps how many queued jobs the dispatcher hands one backend
	// as a single chunk (one worker round trip carries the whole chunk).
	// Chunks are additionally sized adaptively to each worker's free
	// capacity, so MaxBatch only bounds the degenerate single-worker case.
	// Zero selects the default (16); 1 (or any negative value) restores
	// per-cell dispatch.
	MaxBatch int
	// CacheSize is the LRU result-cache capacity in entries. Zero selects
	// the default (1024); any negative value disables in-memory caching.
	CacheSize int
	// JobRetention bounds how many finished jobs stay pollable via Get
	// (default 16384). Beyond it the oldest finished jobs are forgotten,
	// keeping a long-lived server's memory bounded.
	JobRetention int
	// DataDir, when non-empty, roots the persistent content-addressed
	// result store: every finished result is written there (one JSON file
	// per JobSpec hash, sharded, atomically renamed into place) and LRU
	// misses fall through to it, so results survive restarts and are
	// shared between processes pointing at the same directory.
	DataDir string
	// MaxBody caps HTTP request bodies on the JSON API routes (bytes;
	// default 8 MiB).
	MaxBody int64
	// Share, when set, connects this scheduler to a cluster-wide result
	// store: a submitted spec that misses the local LRU and disk store is
	// looked up there before queueing (a hit completes the job without
	// simulating, promoted through the local LRU), and every locally
	// simulated result is written back so the rest of the cluster can reuse
	// it. Workers point it at their server; a federated dispatch server can
	// point it at an upstream results server.
	Share *RemoteResultStore
	// QueueMax, when positive, is the per-class queued-job watermark for
	// admission control: a submission that finds its class's queue at the
	// watermark is refused with a QueueFullError (HTTP 429 + Retry-After)
	// instead of queued. Batch-kind classes (sweep cells) are exempt up to
	// their own watermark of 64×QueueMax — sweeps flood the queue by
	// design. Submissions that dedup onto an in-flight job or are answered
	// by the cache/store/share are never refused. Zero disables admission
	// control.
	QueueMax int
	// ClassWeights overrides the weighted deficit-round-robin dispatch
	// weights (defaults: interactive 8, batch 1; the "default" key sets
	// the weight of ad-hoc tenant classes, default 4).
	ClassWeights map[string]int
}

// SubmitOptions carries a submission's scheduling attributes — everything
// about how a job is queued, nothing about what it simulates, so none of
// it enters the JobSpec content hash and a submission that dedups onto an
// in-flight job simply joins that job's existing class.
type SubmitOptions struct {
	// Class names the fair-share scheduling class. Empty selects
	// ClassInteractive.
	Class string
	// SweepID tags the job as a cell of the named sweep.
	SweepID string
}

// Scheduler runs JobSpecs through a pluggable execution Backend — by
// default a MultiBackend over an in-process pool plus any remote workers
// that register — tracking per-job status and deduplicating identical
// specs: a spec whose hash matches a cached result completes instantly, and
// one matching a queued or running job shares that job instead of enqueuing
// a duplicate. Wherever a job executes, its result flows into the same
// result tiers (LRU cache, persistent store, cluster share).
type Scheduler struct {
	backend *MultiBackend
	results resultTiers

	// maxBody is the HTTP request-body cap the handler enforces
	// (Config.MaxBody, defaulted).
	maxBody int64
	// runFn executes one local simulation; tests substitute a stub. The
	// default LocalBackend reads it through a closure at execution time, so
	// installing a stub after Open but before the first Submit works.
	runFn func(sim.Options) (*sim.RunResult, error)

	mu        sync.Mutex
	cond      *sync.Cond
	queues    *multiQueue
	byID      map[string]*Job
	inflight  map[string]*Job // hash → queued/running job
	retention int
	doneIDs   []string // finished job IDs, oldest first, for byID eviction
	closed    bool
	nextID    uint64
	running   int // jobs dispatched to the backend and not yet returned
	maxBatch  int // dispatch chunk-size cap (Config.MaxBatch, defaulted)

	sweeps    map[string]*Sweep
	sweepDone []string // finished sweep IDs, oldest first, for eviction
	nextSweep uint64

	janitorStop chan struct{}
	// dispatchCtx unblocks a dispatcher parked inside the backend's Reserve
	// wait when Shutdown begins.
	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc

	wg sync.WaitGroup

	metrics metrics
}

// Open starts a scheduler over cfg's execution backend. It errors only when
// Config.DataDir is set and the store directory cannot be created.
func Open(cfg Config) (*Scheduler, error) {
	localWorkers := cfg.Workers
	if localWorkers == 0 {
		localWorkers = runtime.GOMAXPROCS(0)
	}
	if localWorkers < 0 {
		localWorkers = 0
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 16384
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 15 * time.Second
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20 // 8 MiB
	}
	s := &Scheduler{
		runFn:       sim.Run,
		queues:      newMultiQueue(cfg.ClassWeights, cfg.QueueMax),
		byID:        make(map[string]*Job),
		inflight:    make(map[string]*Job),
		retention:   cfg.JobRetention,
		maxBatch:    cfg.MaxBatch,
		maxBody:     cfg.MaxBody,
		sweeps:      make(map[string]*Sweep),
		janitorStop: make(chan struct{}),
	}
	s.dispatchCtx, s.dispatchCancel = context.WithCancel(context.Background())
	s.results = resultTiers{cache: newResultCache(cfg.CacheSize), share: cfg.Share, metrics: &s.metrics, wg: &s.wg}
	if cfg.DataDir != "" {
		store, err := newResultStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.results.store = store
	}
	base := cfg.Backend
	if base == nil {
		// The closure defers the runFn read to execution time (test stubs).
		base = NewLocalBackend(localWorkers, func(o sim.Options) (*sim.RunResult, error) { return s.runFn(o) })
	}
	if multi, ok := base.(*MultiBackend); ok {
		s.backend = multi
	} else {
		s.backend = NewMultiBackend(base)
	}
	s.backend.maxBatch = s.maxBatch
	s.backend.onChange = s.wake
	s.backend.resultLookup = func(hash string) *sim.RunResult { return s.results.lookup(hash, false) }
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.dispatch()
	go s.janitor(cfg.WorkerTTL)
	return s, nil
}

// wake re-evaluates the dispatcher's gate after a capacity change (a worker
// registered, failed, or expired).
func (s *Scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// New starts a scheduler over cfg's execution backend, panicking when the
// result store cannot be opened. Callers with an untrusted DataDir should
// use Open.
func New(cfg Config) *Scheduler {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

var (
	defaultMu  sync.Mutex
	defaultSch *Scheduler
	defaultCfg Config
)

// SetDefaultConfig sets the configuration the process-wide scheduler is
// created with. It must be called before the first Default() call — CLI
// tools call it from flag handling (e.g. -data-dir) — and errors if the
// default scheduler already exists or the configured store cannot open.
func SetDefaultConfig(cfg Config) error {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultSch != nil {
		return errors.New("service: default scheduler already created")
	}
	if cfg.DataDir != "" {
		// Surface store errors here rather than as a panic in Default.
		if _, err := newResultStore(cfg.DataDir); err != nil {
			return err
		}
	}
	defaultCfg = cfg
	return nil
}

// Default returns the process-wide shared scheduler, creating it on first
// use with the SetDefaultConfig configuration. The CLI tools and the
// experiment drivers all submit through it, so repeated cells across
// drivers are simulated once per process (and once ever, with a DataDir).
func Default() *Scheduler {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultSch == nil {
		defaultSch = New(defaultCfg) // DataDir pre-validated by SetDefaultConfig
	}
	return defaultSch
}

// Submit validates spec, assigns a job ID and either enqueues the work or
// resolves it immediately from the result cache. Submitting a spec whose
// hash matches a job still queued or running returns that existing job.
// The job joins the interactive scheduling class; SubmitWith chooses.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitWith(spec, SubmitOptions{})
}

// SubmitWith is Submit with explicit scheduling attributes: the class the
// job queues under (fair-share dispatch, admission control) and the sweep
// it belongs to. When the class's queue is at its admission watermark
// (Config.QueueMax) the submission is refused with a *QueueFullError —
// unless it never needs a queue slot at all: dedup onto an in-flight job,
// a cache/store/share hit, all bypass admission.
func (s *Scheduler) SubmitWith(spec JobSpec, opts SubmitOptions) (*Job, error) {
	canonical, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := canonical.Hash()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	s.metrics.submitted.Add(1)

	if j, ok := s.inflight[hash]; ok {
		s.metrics.deduped.Add(1)
		j.refs++
		return j, nil
	}

	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Hash:      hash,
		Spec:      canonical,
		Class:     s.queues.resolve(opts.Class),
		SweepID:   opts.SweepID,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		refs:      1,
	}
	s.byID[j.ID] = j

	// Consult the result tiers with the scheduler unlocked: a cold sweep
	// submission must not serialize every other Submit/retire/Metrics call
	// behind file reads or a share round trip. Registering j in inflight
	// first reserves the hash, so a concurrent identical Submit dedups onto
	// j instead of racing its own lookup — which also makes this the only
	// lookup of the hash the share sees.
	s.inflight[hash] = j
	s.mu.Unlock()
	res := s.results.lookup(hash, true)
	s.mu.Lock()
	if res != nil {
		delete(s.inflight, hash)
		j.finish(res, nil, StatusDone, true)
		s.retireLocked(j)
		return j, nil
	}
	if s.closed {
		// Shutdown ran while we were off the lock and canceled the queue;
		// j was reserved but not queued, so cancel it the same way.
		delete(s.inflight, hash)
		j.finish(nil, ErrCanceled, StatusCanceled, false)
		s.retireLocked(j)
		s.metrics.canceled.Add(1)
		return j, nil
	}
	if err := s.admitLocked(j.Class); err != nil && j.refs <= 1 {
		// Every tier missed and the class queue is full. Refusing is only
		// safe while no concurrent identical Submit deduped onto j during
		// the unlocked lookup — sharers hold a *Job they will Wait on, so a
		// shared job must queue despite the watermark (dedup bypasses
		// admission by design: it consumes no new queue capacity of its
		// own submitter's making).
		delete(s.inflight, hash)
		s.rejectLocked(j)
		return nil, err
	}
	s.queues.push(j)
	s.cond.Signal()
	return j, nil
}

// admitLocked applies the admission watermark to one prospective enqueue,
// returning a *QueueFullError when the class's queue is full. A class
// below its watermark always admits — the submission that brings the
// depth exactly to the limit is the last one in. Caller holds s.mu.
func (s *Scheduler) admitLocked(class string) error {
	limit := s.queues.watermark(class)
	if limit <= 0 {
		return nil
	}
	depth := s.queues.depth(class)
	if depth < limit {
		return nil
	}
	return &QueueFullError{
		Class:      class,
		Depth:      depth,
		Limit:      limit,
		RetryAfter: s.retryAfterLocked(depth),
	}
}

// rejectLocked unregisters a job refused by admission control (it was
// never queued, so there is nothing to cancel) and counts the rejection.
func (s *Scheduler) rejectLocked(j *Job) {
	delete(s.byID, j.ID)
	s.queues.class(j.Class).rejected++
	s.metrics.admissionRejected.Add(1)
}

// retryAfterLocked estimates how long a refused submitter should back off:
// the time the backend needs to drain the rejected class's backlog at its
// current capacity, clamped to [1s, 60s] so clients neither stampede back
// immediately nor give up on a briefly saturated server.
func (s *Scheduler) retryAfterLocked(depth int) time.Duration {
	capacity := s.backend.Capacity()
	if capacity < 1 {
		capacity = 1
	}
	secs := (depth + capacity - 1) / capacity
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// Abandon drops one submitter's interest in a job. When the last interested
// submitter abandons a job that is still queued, the job is canceled and its
// queue slot freed — this is how a sweep cancellation, a DELETE /v1/runs
// call or a disconnected ?wait=1 client stops work nobody is waiting for,
// while a job shared with other submitters (dedup) keeps running for them.
// Running jobs are never interrupted (sim.Run has no preemption point): an
// abandoned running job completes and still populates the cache and store.
// Abandon reports whether it canceled the job.
func (s *Scheduler) Abandon(id string) bool {
	s.mu.Lock()
	j, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if j.refs > 0 {
		j.refs--
	}
	if j.refs > 0 {
		s.mu.Unlock()
		return false
	}
	canceled := s.cancelQueuedLocked(j)
	s.mu.Unlock()
	if canceled {
		s.metrics.canceled.Add(1)
	}
	return canceled
}

// cancelQueuedLocked removes j from its class queue and finishes it as
// canceled, reporting false when j is not queued (running or terminal).
// Queue membership — checked and removed under the lock, so a concurrent
// dispatcher pop or second cancellation cannot also finish the job — is
// what authorizes canceling. Caller holds s.mu and owns the canceled
// metric.
func (s *Scheduler) cancelQueuedLocked(j *Job) bool {
	if !s.queues.remove(j) {
		return false
	}
	delete(s.inflight, j.Hash)
	j.finish(nil, ErrCanceled, StatusCanceled, false)
	s.retireLocked(j)
	return true
}

// RunSync submits spec and waits for its result.
func (s *Scheduler) RunSync(ctx context.Context, spec JobSpec) (*sim.RunResult, error) {
	j, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Get returns the job with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// Cancel cancels a queued job that no other submitter shares. Unlike
// Abandon — which is a submitter relinquishing its own interest and always
// consumes a reference — Cancel is an external request (DELETE /v1/runs) by
// a caller whose identity is unknown: when the job is deduped across
// multiple submitters it refuses without touching their references, so a
// shared job (e.g. a running sweep's cell) can never be killed, or have its
// refcount drained by repeated DELETEs, by one client. Running jobs cannot
// be interrupted either way.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.byID[id]
	if !ok || j.refs > 1 {
		s.mu.Unlock()
		return false
	}
	canceled := s.cancelQueuedLocked(j)
	s.mu.Unlock()
	if canceled {
		s.metrics.canceled.Add(1)
	}
	return canceled
}

// QueueDepth returns the number of jobs waiting for a worker, across every
// scheduling class.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queues.len()
}

// ClassQueueDepth returns the number of jobs queued in one scheduling
// class.
func (s *Scheduler) ClassQueueDepth(class string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queues.depth(class)
}

// QueuePosition returns the job's 1-based position within its class queue
// — what a polling client sees as "how many jobs of my kind are ahead of
// me" — or 0 when the job is not queued (running, finished, unknown).
func (s *Scheduler) QueuePosition(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return 0
	}
	return s.queues.position(j)
}

// Running returns the number of jobs currently simulating.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Shutdown stops accepting new jobs, cancels everything still queued, and
// waits for running simulations to finish or ctx to expire.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	canceled := s.queues.drain()
	for _, j := range canceled {
		delete(s.inflight, j.Hash)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.dispatchCancel() // unpark a dispatcher waiting inside Reserve
	close(s.janitorStop)

	for _, j := range canceled {
		j.finish(nil, ErrCanceled, StatusCanceled, false)
		s.retire(j)
		s.metrics.canceled.Add(1)
	}

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts the scheduler down, waiting indefinitely for running jobs.
func (s *Scheduler) Close() error { return s.Shutdown(context.Background()) }

// retire records a finished job and evicts the oldest finished jobs from
// byID once more than retention of them have accumulated.
func (s *Scheduler) retire(j *Job) {
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

func (s *Scheduler) retireLocked(j *Job) {
	s.doneIDs = append(s.doneIDs, j.ID)
	for len(s.doneIDs) > s.retention {
		delete(s.byID, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
}

// dispatch is the scheduler's single dispatcher goroutine. Whenever the
// backend has free dispatch budget it reserves a chunk of cells on the
// single best backend slot — sized adaptively to that slot's free capacity
// and capped at Config.MaxBatch — pops that many queued jobs under
// weighted deficit round-robin across the class queues, and hands the
// chunk to its own runChunk goroutine; a remote chunk then rides one worker
// round trip instead of one per cell. Budget is re-read on every iteration,
// so the gate automatically widens when a remote worker registers (the
// backend's onChange hook broadcasts the cond) and narrows when one fails.
//
// Ordering: reservation happens before the queue pop, so jobs stay in the
// queue — cancelable, abandonable, visible to QueueDepth — for as long as
// no backend is actually ready for them.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && (s.queues.len() == 0 || s.running >= s.backend.DispatchBudget()) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		want := min(s.queues.len(), s.maxBatch)
		s.mu.Unlock()

		r, err := s.backend.Reserve(s.dispatchCtx, want)
		if err != nil {
			// Shutdown canceled the wait, or every backend vanished while
			// we were reserving: re-evaluate the gate (with zero capacity
			// the cond parks until a worker registers).
			continue
		}
		s.mu.Lock()
		chunk := s.queues.popN(min(r.Granted(), s.queues.len()), time.Now())
		s.running += len(chunk)
		s.mu.Unlock()
		if len(chunk) == 0 {
			// Everything queued was canceled while we waited for the slot.
			r.release()
			continue
		}
		r.shrink(len(chunk))
		if len(chunk) > 1 {
			s.metrics.batchesDispatched.Add(1)
			s.metrics.batchCells.Add(uint64(len(chunk)))
		}
		s.wg.Add(1)
		go s.runChunk(r, chunk)
	}
}

// runChunk executes one dispatched chunk on its reserved backend slot and
// routes each cell's outcome individually: success is filed in the result
// tiers exactly as a local run always has, a simulation
// failure is terminal for that cell alone, and a backend failure (remote
// worker died mid-chunk, returned a bad envelope, or no healthy backend
// exists) requeues the affected cells at the head of their class queues in
// their original order — except cells every submitter has abandoned in the
// meantime: those are dropped from the chunk and canceled, not requeued to
// simulate for no one, while their live siblings still requeue. The chunk
// is never the unit of failure; the cell is.
func (s *Scheduler) runChunk(r *reservation, chunk []*Job) {
	defer s.wg.Done()
	started := time.Now()
	specs := make([]JobSpec, len(chunk))
	hashes := make([]string, len(chunk))
	for i, j := range chunk {
		j.mu.Lock()
		j.status = StatusRunning
		j.started = started
		j.mu.Unlock()
		specs[i] = j.Spec
		hashes[i] = j.Hash
	}

	results := r.execute(context.Background(), specs, hashes)
	elapsed := time.Since(started)

	// Split the outcomes under one lock so requeued cells re-enter the
	// queue head as a block, preserving their relative order (oldest work
	// first). Terminal cells finish after the lock drops: caching and
	// persistence do real work (deep copies, disk writes) that must not
	// serialize every Submit behind this chunk.
	s.mu.Lock()
	s.running -= len(chunk)
	var requeued, dropped []*Job
	var terminal []int
	for i, j := range chunk {
		if err := results[i].Err; err != nil && errors.Is(err, ErrBackendUnavailable) {
			if s.closed || j.refs <= 0 {
				// Shutdown, or nobody is interested anymore: drop the cell
				// from the chunk instead of requeuing it.
				delete(s.inflight, j.Hash)
				dropped = append(dropped, j)
				continue
			}
			j.mu.Lock()
			j.status = StatusQueued
			j.mu.Unlock()
			requeued = append(requeued, j)
			continue
		}
		delete(s.inflight, j.Hash)
		terminal = append(terminal, i)
	}
	s.queues.requeueFront(requeued)
	s.cond.Broadcast()
	s.mu.Unlock()

	if len(requeued) > 0 {
		s.metrics.requeued.Add(uint64(len(requeued)))
	}
	for _, j := range dropped {
		j.finish(nil, ErrCanceled, StatusCanceled, false)
		s.retire(j)
		s.metrics.canceled.Add(1)
	}
	for _, i := range terminal {
		j := chunk[i]
		if err := results[i].Err; err != nil {
			j.finish(nil, err, StatusFailed, false)
			s.retire(j)
			s.metrics.failed.Add(1)
			continue
		}
		res := results[i].Result
		cacheHit := results[i].CacheHit
		if !cacheHit {
			// A dispatch-time short-circuit (cacheHit) was answered by the
			// result tiers themselves and has nothing new to file.
			s.results.put(j.Hash, res, true)
		}
		j.finish(res, nil, StatusDone, cacheHit)
		s.retire(j)
		s.metrics.completed.Add(1)
		if !cacheHit {
			s.metrics.executed.Add(1)
			s.metrics.simInstructions.Add(j.Spec.Instructions * uint64(j.Spec.Threads))
			// Busy time is attributed per cell at chunk wall-time granularity —
			// the same dispatch-to-result window the per-cell path measured.
			s.metrics.simBusyNanos.Add(uint64(elapsed.Nanoseconds()))
		}
	}
}

// janitor expires remote workers whose lease lapsed, until shutdown.
func (s *Scheduler) janitor(ttl time.Duration) {
	interval := ttl / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			if removed := s.backend.expire(ttl); removed != nil {
				s.metrics.workersLost.Add(uint64(len(removed)))
			}
		}
	}
}

// RegisterWorker adds a remote constable-worker (reachable at workerURL, an
// absolute http(s) URL, able to run capacity concurrent jobs) to the
// execution backend and returns its assigned identity. The new capacity is
// dispatchable immediately; the worker must heartbeat within the configured
// WorkerTTL to stay registered.
func (s *Scheduler) RegisterWorker(name, workerURL string, capacity int) (WorkerView, error) {
	u, err := url.Parse(workerURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		// Catch the scheme-less registration ("10.0.0.5:8081") up front:
		// accepted, it would make every dispatch to the worker fail.
		return WorkerView{}, fmt.Errorf("service: worker url %q must be absolute, e.g. http://host:port", workerURL)
	}
	if capacity <= 0 {
		capacity = 1
	}
	if name == "" {
		name = workerURL
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return WorkerView{}, ErrShuttingDown
	}
	v := s.backend.AddWorker(name, workerURL, capacity, NewRemoteBackend(name, workerURL, capacity))
	s.metrics.workersRegistered.Add(1)
	return v, nil
}

// HeartbeatWorker renews a worker's lease (and restores its health after a
// transient failure). The second return is false for an unknown ID — the
// worker should re-register.
func (s *Scheduler) HeartbeatWorker(id string) (WorkerView, bool) {
	return s.backend.Heartbeat(id)
}

// DeregisterWorker removes a worker from dispatch (graceful worker
// shutdown). Jobs already in flight on it drain normally.
func (s *Scheduler) DeregisterWorker(id string) bool {
	ok := s.backend.RemoveWorker(id)
	if ok {
		s.metrics.workersLost.Add(1)
	}
	return ok
}

// Workers lists the registered remote workers.
func (s *Scheduler) Workers() []WorkerView { return s.backend.Workers() }

// Backend returns the scheduler's MultiBackend — the composition of the
// local pool and every registered remote worker.
func (s *Scheduler) Backend() *MultiBackend { return s.backend }
