package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"constable/internal/sim"
)

// SweepStatus is the lifecycle state of a sweep (a workload×config matrix
// submitted as one job group).
type SweepStatus string

const (
	SweepRunning  SweepStatus = "running"
	SweepDone     SweepStatus = "done"
	SweepFailed   SweepStatus = "failed"
	SweepCanceled SweepStatus = "canceled"
)

// SweepOptions parameterizes a sweep.
type SweepOptions struct {
	// FailFast cancels the rest of the sweep after the first failed cell:
	// queued cells are dropped (unless another submitter shares them) and
	// the sweep drains without waiting for results nobody will use.
	FailFast bool
	// Class names the scheduling class the sweep's cells are submitted
	// under. Empty selects ClassBatch — sweep cells are batch work by
	// definition; a tenant-scoped batch class ("batch:<tenant>") keeps one
	// tenant's sweeps fair-sharing against another's.
	Class string
}

// SweepEvent reports one finished cell of a sweep. Events are delivered in
// completion order, not matrix order; Row/Col locate the cell.
type SweepEvent struct {
	Seq      int       `json:"seq"`
	Row      int       `json:"row"`
	Col      int       `json:"col"`
	Workload string    `json:"workload"`
	JobID    string    `json:"job_id"`
	Hash     string    `json:"hash"`
	Status   JobStatus `json:"status"` // done | failed | canceled
	CacheHit bool      `json:"cache_hit,omitempty"`
	Error    string    `json:"error,omitempty"`

	// Result is the cell's full result for status done, attached at
	// delivery when the subscriber asked for results — a fresh deep copy
	// per subscriber, never retained in the sweep's event log — so mutating
	// a delivered result cannot corrupt other subscribers or replays. On a
	// replay of a long-finished sweep it is resolved from the result
	// cache/store by hash and may be nil if evicted and no store is
	// configured.
	Result *sim.RunResult `json:"result,omitempty"`
}

// SweepView is the API representation of a sweep's aggregate state.
type SweepView struct {
	ID     string      `json:"id"`
	Status SweepStatus `json:"status"`
	// Class is the scheduling class the sweep's cells queue under.
	Class     string `json:"class,omitempty"`
	Rows      int    `json:"rows"`
	Total     int    `json:"total_cells"`
	Completed int    `json:"completed_cells"`
	CacheHits int    `json:"cache_hits"`
	Failed    int    `json:"failed_cells"`
	Canceled  int    `json:"canceled_cells"`
	Error     string `json:"error,omitempty"`
}

// Sweep tracks one matrix of jobs through the scheduler with sweep-level
// cancellation. Events accumulate in order and are replayable: a subscriber
// attaching at any time sees the full history and then follows live.
type Sweep struct {
	ID    string
	sched *Scheduler
	stop  context.CancelFunc

	class    string
	rows     int
	total    int
	failFast bool
	jobs     [][]*Job

	mu        sync.Mutex
	cond      *sync.Cond
	events    []SweepEvent
	status    SweepStatus
	completed int
	cacheHits int
	failed    int
	canceled  int
	firstErr  error
	done      chan struct{}
}

// sweepRetention bounds how many finished sweeps stay pollable.
const sweepRetention = 1024

// StartSweep validates and submits a whole workload×config matrix as one
// job group and returns immediately; cells stream out through
// (*Sweep).Stream as they complete, with no full-matrix barrier. The
// matrix's rows land on the shared queue in row-major order, from which
// the dispatcher shards them into chunks sized to each backend's free
// capacity (Config.MaxBatch caps a chunk) — a remote worker receives whole
// chunks per round trip, yet per-cell identity is preserved end to end, so
// artifacts stay byte-identical to per-cell dispatch and the NDJSON event
// stream keeps its ordering contract. Identical cells — within the matrix
// or against anything the scheduler has already seen — are deduplicated or
// served from the cache/store like any other submission. Canceling ctx (or calling (*Sweep).Cancel) cancels the sweep:
// queued cells with no other interested submitter are dropped from the
// scheduler's queue; running cells finish and still populate the cache and
// store, but the sweep stops waiting for them.
//
// Invalid specs fail the whole sweep up front, before anything is
// submitted.
func (s *Scheduler) StartSweep(ctx context.Context, matrix [][]JobSpec, opts SweepOptions) (*Sweep, error) {
	if len(matrix) == 0 {
		return nil, errors.New("service: empty sweep")
	}
	total := 0
	for ri, row := range matrix {
		if len(row) == 0 {
			return nil, fmt.Errorf("service: sweep row %d is empty", ri)
		}
		for ci, spec := range row {
			if _, err := spec.Canonical(); err != nil {
				return nil, fmt.Errorf("service: sweep cell (%d,%d): %w", ri, ci, err)
			}
		}
		total += len(row)
	}

	class := opts.Class
	if class == "" {
		class = ClassBatch
	}
	swctx, cancel := context.WithCancel(ctx)
	sw := &Sweep{
		sched:    s,
		stop:     cancel,
		class:    class,
		rows:     len(matrix),
		total:    total,
		failFast: opts.FailFast,
		jobs:     make([][]*Job, len(matrix)),
		status:   SweepRunning,
		done:     make(chan struct{}),
	}
	sw.cond = sync.NewCond(&sw.mu)

	// The sweep's identity is allocated before its cells are submitted so
	// each cell can be tagged with it (JobView.Sweep); the sweep only
	// becomes pollable once every cell is in.
	s.mu.Lock()
	s.nextSweep++
	sw.ID = fmt.Sprintf("sweep-%d", s.nextSweep)
	s.mu.Unlock()

	for ri, row := range matrix {
		sw.jobs[ri] = make([]*Job, len(row))
		for ci, spec := range row {
			j, err := s.SubmitWith(spec, SubmitOptions{Class: class, SweepID: sw.ID})
			if err != nil {
				// Roll back: drop interest in everything already submitted.
				for _, prow := range sw.jobs {
					for _, pj := range prow {
						if pj != nil {
							s.Abandon(pj.ID)
						}
					}
				}
				cancel()
				return nil, fmt.Errorf("service: sweep cell (%d,%d): %w", ri, ci, err)
			}
			sw.jobs[ri][ci] = j
		}
	}

	s.mu.Lock()
	s.sweeps[sw.ID] = sw
	s.mu.Unlock()
	s.metrics.sweepsStarted.Add(1)

	var wg sync.WaitGroup
	for ri := range sw.jobs {
		wg.Add(1)
		go sw.drainRow(swctx, ri, &wg)
	}
	go func() {
		wg.Wait()
		sw.finalize()
	}()
	return sw, nil
}

// GetSweep returns the sweep with the given ID.
func (s *Scheduler) GetSweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// drainRow waits for one row's cells in column order, recording an event
// per cell. On sweep cancellation it abandons each remaining cell exactly
// once, so sole-interest queued cells leave the scheduler queue.
func (sw *Sweep) drainRow(ctx context.Context, ri int, wg *sync.WaitGroup) {
	defer wg.Done()
	for ci, j := range sw.jobs[ri] {
		ev := SweepEvent{
			Row: ri, Col: ci,
			Workload: j.Spec.Workload,
			JobID:    j.ID,
			Hash:     j.Hash,
		}
		var err error
		select {
		case <-j.Done():
			err = j.terminalErr()
		case <-ctx.Done():
			// Sweep canceled. The job may still have finished concurrently;
			// report the real outcome if so, otherwise drop our interest.
			select {
			case <-j.Done():
				err = j.terminalErr()
			default:
				sw.sched.Abandon(j.ID)
				ev.Status = StatusCanceled
				ev.Error = "sweep canceled"
				sw.record(ev, nil)
				continue
			}
		}
		if errors.Is(err, ErrCanceled) {
			// The cell was canceled (sweep cancellation racing through a
			// deduped sibling drainer, scheduler shutdown, an external
			// DELETE of a sole-interest cell) — that is a canceled cell,
			// not a simulation failure, and must not fail the sweep.
			ev.Status = StatusCanceled
			ev.Error = err.Error()
			sw.record(ev, nil)
			continue
		}
		if err != nil {
			ev.Status = StatusFailed
			ev.Error = err.Error()
			sw.record(ev, err)
			continue
		}
		// The result itself is not stored in the event log (Stream attaches
		// a fresh copy from the job at delivery); only the outcome is.
		ev.Status = StatusDone
		ev.CacheHit = j.CacheHit()
		sw.record(ev, nil)
	}
}

// record appends one event, updates the aggregate counters, and wakes
// subscribers. err is the cell's failure (nil otherwise); the first one
// becomes the sweep's error and, under FailFast, cancels the rest.
func (sw *Sweep) record(ev SweepEvent, err error) {
	failFast := false
	sw.mu.Lock()
	ev.Seq = len(sw.events)
	sw.events = append(sw.events, ev)
	switch ev.Status {
	case StatusDone:
		sw.completed++
		if ev.CacheHit {
			sw.cacheHits++
		}
	case StatusFailed:
		sw.failed++
		if sw.firstErr == nil {
			sw.firstErr = err
			failFast = sw.failFast
		}
	case StatusCanceled:
		sw.canceled++
	}
	sw.cond.Broadcast()
	sw.mu.Unlock()
	if failFast {
		sw.stop()
	}
}

// finalize marks the sweep terminal once every row has drained. It also
// releases the job matrix: a retained finished sweep must not pin every
// cell's RunResult in memory (JobRetention and the LRU bound those) —
// replays with results re-resolve them from the cache/store by hash.
func (sw *Sweep) finalize() {
	sw.mu.Lock()
	sw.jobs = nil
	switch {
	case sw.firstErr != nil:
		sw.status = SweepFailed
	case sw.canceled > 0:
		sw.status = SweepCanceled
	default:
		sw.status = SweepDone
	}
	status := sw.status
	close(sw.done)
	sw.cond.Broadcast()
	sw.mu.Unlock()
	sw.stop() // release the derived context

	m := &sw.sched.metrics
	switch status {
	case SweepFailed:
		m.sweepsFailed.Add(1)
	case SweepCanceled:
		m.sweepsCanceled.Add(1)
	default:
		m.sweepsCompleted.Add(1)
	}
	sw.sched.retireSweep(sw)
}

func (s *Scheduler) retireSweep(sw *Sweep) {
	s.mu.Lock()
	s.sweepDone = append(s.sweepDone, sw.ID)
	for len(s.sweepDone) > sweepRetention {
		delete(s.sweeps, s.sweepDone[0])
		s.sweepDone = s.sweepDone[1:]
	}
	s.mu.Unlock()
}

// Cancel stops the sweep. Queued cells nobody else is waiting on are
// dropped; the sweep reaches a terminal status once in-flight cells drain.
func (sw *Sweep) Cancel() { sw.stop() }

// Done is closed when the sweep reaches a terminal status.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Status returns the sweep's current lifecycle state.
func (sw *Sweep) Status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.status
}

// Err returns the first cell failure, or nil.
func (sw *Sweep) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.firstErr
}

// View returns a point-in-time aggregate of the sweep.
func (sw *Sweep) View() SweepView {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	v := SweepView{
		ID:        sw.ID,
		Status:    sw.status,
		Class:     sw.class,
		Rows:      sw.rows,
		Total:     sw.total,
		Completed: sw.completed,
		CacheHits: sw.cacheHits,
		Failed:    sw.failed,
		Canceled:  sw.canceled,
	}
	if sw.firstErr != nil {
		v.Error = sw.firstErr.Error()
	}
	return v
}

// Stream replays every event from the beginning and then follows the live
// stream, invoking fn serially and in order. With withResults, each done
// cell's event carries a deep copy of its RunResult (subscribers that only
// need outcomes skip that cost — the clone is the largest allocation on
// this path). Stream returns nil once the sweep is terminal and fully
// delivered, fn's error if fn fails, or ctx.Err() if ctx is canceled
// first. Multiple subscribers may stream one sweep concurrently; each gets
// the full ordered history.
func (sw *Sweep) Stream(ctx context.Context, withResults bool, fn func(SweepEvent) error) error {
	unhook := context.AfterFunc(ctx, func() {
		sw.mu.Lock()
		sw.cond.Broadcast()
		sw.mu.Unlock()
	})
	defer unhook()
	for i := 0; ; i++ {
		sw.mu.Lock()
		for i >= len(sw.events) && sw.status == SweepRunning && ctx.Err() == nil {
			sw.cond.Wait()
		}
		if ctx.Err() != nil {
			sw.mu.Unlock()
			return ctx.Err()
		}
		if i >= len(sw.events) {
			sw.mu.Unlock()
			return nil // terminal and drained
		}
		ev := sw.events[i]
		var j *Job
		if withResults && ev.Status == StatusDone && sw.jobs != nil {
			j = sw.jobs[ev.Row][ev.Col]
		}
		sw.mu.Unlock()
		if withResults && ev.Status == StatusDone {
			// Attach the result at delivery — Job.Result deep-copies, so
			// every subscriber owns its document. Once the sweep has
			// finalized (jobs released), resolve it from the cache/store.
			if j != nil {
				if res, err := j.Result(); err == nil {
					ev.Result = res
				}
			} else {
				ev.Result = sw.sched.results.lookup(ev.Hash, false)
			}
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}
