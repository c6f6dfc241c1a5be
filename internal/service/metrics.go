package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics holds the scheduler's cumulative counters.
type metrics struct {
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	deduped   atomic.Uint64
	// requeued counts jobs bounced back to the queue after a backend
	// failure (remote worker died mid-job or returned a bad envelope).
	requeued atomic.Uint64
	// admissionRejected counts submissions refused by admission control
	// (class queue at its watermark → HTTP 429 + Retry-After).
	admissionRejected atomic.Uint64
	// executed counts terminal successes that actually ran a simulation on
	// some backend — completed minus dispatch-time store short-circuits,
	// and excluding submit-time cache/store/share hits, which never reach
	// a backend at all. The global dedup ratio derives from it.
	executed atomic.Uint64

	// Remote result-sharing families. On a server they count the
	// /v1/results endpoint: GETs served (remoteHits) or 404'd
	// (remoteMisses), write-backs accepted (remoteWritebacks) or refused on
	// envelope verification (remoteRejected). On a consulting scheduler — a
	// worker, or a server federated via Config.Share — they count its own
	// consultations: results adopted, lookups that missed, write-backs that
	// landed, and envelopes refused because their hash or schema failed
	// verification.
	remoteHits       atomic.Uint64
	remoteMisses     atomic.Uint64
	remoteWritebacks atomic.Uint64
	remoteRejected   atomic.Uint64

	// batchesDispatched counts multi-cell chunks handed to a backend in one
	// round trip; batchCells the cells they carried. Their ratio is the
	// realized mean chunk size — the lever POST /execute/batch exists for.
	batchesDispatched atomic.Uint64
	batchCells        atomic.Uint64

	workersRegistered atomic.Uint64
	workersLost       atomic.Uint64 // deregistered, lease-expired

	sweepsStarted   atomic.Uint64
	sweepsCompleted atomic.Uint64
	sweepsFailed    atomic.Uint64
	sweepsCanceled  atomic.Uint64

	// simInstructions counts committed-path instructions actually simulated
	// (cache hits excluded); simBusyNanos the worker time spent simulating.
	simInstructions atomic.Uint64
	simBusyNanos    atomic.Uint64
}

// MetricsSnapshot is a point-in-time view of the scheduler's counters,
// suitable for JSON or the plaintext /metrics endpoint.
type MetricsSnapshot struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsDeduped   uint64 `json:"jobs_deduped"`
	JobsRequeued  uint64 `json:"jobs_requeued"`
	JobsRunning   int    `json:"jobs_running"`
	QueueDepth    int    `json:"queue_depth"`
	// JobsExecuted counts jobs that actually ran a simulation on some
	// backend; every other submission was answered by a dedup, the LRU, the
	// disk store, the cluster share, or a dispatch-time short-circuit.
	// GlobalDedupRatio is (submitted − executed) / submitted — the fraction
	// of submitted work the dedup tiers absorbed.
	JobsExecuted     uint64  `json:"jobs_executed"`
	GlobalDedupRatio float64 `json:"global_dedup_ratio"`

	// Batched-dispatch families: chunks of ≥2 cells sent to one backend in
	// one round trip, and the cells they carried (single-cell dispatches
	// count in neither).
	BatchesDispatched uint64 `json:"batches_dispatched"`
	BatchCells        uint64 `json:"batch_cells"`

	// Worker/backend families. WorkersActive counts currently-registered
	// healthy remote workers; BackendCapacity is the total concurrent-job
	// budget (local slots + healthy workers) the dispatcher sees.
	WorkersRegistered uint64 `json:"workers_registered"`
	WorkersLost       uint64 `json:"workers_lost"`
	WorkersActive     int    `json:"workers_active"`
	BackendCapacity   int    `json:"backend_capacity"`

	SweepsStarted   uint64 `json:"sweeps_started"`
	SweepsCompleted uint64 `json:"sweeps_completed"`
	SweepsFailed    uint64 `json:"sweeps_failed"`
	SweepsCanceled  uint64 `json:"sweeps_canceled"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Store counters are zero when no --data-dir is configured.
	StoreHits    uint64 `json:"store_hits"`
	StoreMisses  uint64 `json:"store_misses"`
	StoreWrites  uint64 `json:"store_writes"`
	StoreErrors  uint64 `json:"store_errors"`
	StoreCorrupt uint64 `json:"store_corrupt"`

	// Remote result-sharing families (cluster-wide dedup). On a server:
	// GET /v1/results served/404'd and PUT write-backs accepted/refused. On
	// a consulting worker or federated server: its own lookups and
	// write-backs against the upstream store. Rejected counts envelopes
	// refused on hash/schema verification — on either side, never adopted.
	StoreRemoteHits       uint64 `json:"store_remote_hits"`
	StoreRemoteMisses     uint64 `json:"store_remote_misses"`
	StoreRemoteWritebacks uint64 `json:"store_remote_writebacks"`
	StoreRemoteRejected   uint64 `json:"store_remote_rejected"`

	SimInstructions       uint64  `json:"sim_instructions"`
	SimInstructionsPerSec float64 `json:"sim_instructions_per_sec"`

	// Fair-share scheduling families. AdmissionRejected counts submissions
	// refused because their class queue sat at its watermark; Classes
	// breaks queueing down per scheduling class.
	AdmissionRejected uint64         `json:"admission_rejected"`
	Classes           []ClassMetrics `json:"classes,omitempty"`
}

// ClassMetrics is the per-scheduling-class slice of the snapshot.
type ClassMetrics struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	// Watermark is the class's admission limit (0 = unlimited).
	Watermark int `json:"watermark,omitempty"`
	Depth     int `json:"depth"`
	// Admitted counts jobs that entered this class's queue; Rejected those
	// refused at the watermark; Dispatched those handed to a backend
	// (requeues re-count); Requeued those bounced back after a backend
	// failure. QueueWaitSeconds accumulates the submit→dispatch wait of
	// every dispatched job — divided by Dispatched it is the class's mean
	// queue wait, the number the interactive class's weight exists to keep
	// small.
	Admitted         uint64  `json:"admitted"`
	Rejected         uint64  `json:"rejected"`
	Dispatched       uint64  `json:"dispatched"`
	Requeued         uint64  `json:"requeued"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
}

// Metrics returns a snapshot of the scheduler's counters.
func (s *Scheduler) Metrics() MetricsSnapshot {
	hits, misses := s.results.cache.Stats()
	m := MetricsSnapshot{
		JobsSubmitted: s.metrics.submitted.Load(),
		JobsCompleted: s.metrics.completed.Load(),
		JobsFailed:    s.metrics.failed.Load(),
		JobsCanceled:  s.metrics.canceled.Load(),
		JobsDeduped:   s.metrics.deduped.Load(),
		JobsRequeued:  s.metrics.requeued.Load(),
		JobsExecuted:  s.metrics.executed.Load(),
		JobsRunning:   s.Running(),
		QueueDepth:    s.QueueDepth(),

		StoreRemoteHits:       s.metrics.remoteHits.Load(),
		StoreRemoteMisses:     s.metrics.remoteMisses.Load(),
		StoreRemoteWritebacks: s.metrics.remoteWritebacks.Load(),
		StoreRemoteRejected:   s.metrics.remoteRejected.Load(),

		BatchesDispatched: s.metrics.batchesDispatched.Load(),
		BatchCells:        s.metrics.batchCells.Load(),

		WorkersRegistered: s.metrics.workersRegistered.Load(),
		WorkersLost:       s.metrics.workersLost.Load(),
		BackendCapacity:   s.backend.Capacity(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      s.results.cache.Len(),

		SweepsStarted:   s.metrics.sweepsStarted.Load(),
		SweepsCompleted: s.metrics.sweepsCompleted.Load(),
		SweepsFailed:    s.metrics.sweepsFailed.Load(),
		SweepsCanceled:  s.metrics.sweepsCanceled.Load(),
	}
	if s.results.store != nil {
		st := s.results.store.Stats()
		m.StoreHits = st.hits
		m.StoreMisses = st.misses
		m.StoreWrites = st.writes
		m.StoreErrors = st.errors
		m.StoreCorrupt = st.corrupt
	}
	for _, w := range s.backend.Workers() {
		if w.Healthy {
			m.WorkersActive++
		}
	}
	if total := hits + misses; total > 0 {
		m.CacheHitRate = float64(hits) / float64(total)
	}
	if m.JobsSubmitted > 0 {
		m.GlobalDedupRatio = float64(m.JobsSubmitted-m.JobsExecuted) / float64(m.JobsSubmitted)
	}
	m.SimInstructions = s.metrics.simInstructions.Load()
	if busy := s.metrics.simBusyNanos.Load(); busy > 0 {
		m.SimInstructionsPerSec = float64(m.SimInstructions) / (float64(busy) / 1e9)
	}
	m.AdmissionRejected = s.metrics.admissionRejected.Load()
	m.Classes = s.classMetrics()
	return m
}

// classMetrics snapshots the per-class queueing counters in class-creation
// order (stable across scrapes — classes are never deleted).
func (s *Scheduler) classMetrics() []ClassMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ClassMetrics, 0, len(s.queues.order))
	for _, cq := range s.queues.order {
		out = append(out, ClassMetrics{
			Name:             cq.name,
			Weight:           cq.weight,
			Watermark:        s.queues.watermark(cq.name),
			Depth:            len(cq.jobs),
			Admitted:         cq.admitted,
			Rejected:         cq.rejected,
			Dispatched:       cq.dispatched,
			Requeued:         cq.requeued,
			QueueWaitSeconds: float64(cq.waitNanos) / 1e9,
		})
	}
	return out
}

// WriteTo renders the snapshot in Prometheus text exposition format.
func (m MetricsSnapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(name string, value any) error {
		c, err := fmt.Fprintf(w, "constable_%s %v\n", name, value)
		n += int64(c)
		return err
	}
	for _, row := range []struct {
		name  string
		value any
	}{
		{"jobs_submitted_total", m.JobsSubmitted},
		{"jobs_completed_total", m.JobsCompleted},
		{"jobs_failed_total", m.JobsFailed},
		{"jobs_canceled_total", m.JobsCanceled},
		{"jobs_deduped_total", m.JobsDeduped},
		{"jobs_requeued_total", m.JobsRequeued},
		{"jobs_executed_total", m.JobsExecuted},
		{"global_dedup_ratio", m.GlobalDedupRatio},
		{"jobs_running", m.JobsRunning},
		{"queue_depth", m.QueueDepth},
		{"batches_dispatched_total", m.BatchesDispatched},
		{"batch_cells_total", m.BatchCells},
		{"workers_registered_total", m.WorkersRegistered},
		{"workers_lost_total", m.WorkersLost},
		{"workers_active", m.WorkersActive},
		{"backend_capacity", m.BackendCapacity},
		{"sweeps_started_total", m.SweepsStarted},
		{"sweeps_completed_total", m.SweepsCompleted},
		{"sweeps_failed_total", m.SweepsFailed},
		{"sweeps_canceled_total", m.SweepsCanceled},
		{"cache_hits_total", m.CacheHits},
		{"cache_misses_total", m.CacheMisses},
		{"cache_entries", m.CacheEntries},
		{"cache_hit_rate", m.CacheHitRate},
		{"store_hits_total", m.StoreHits},
		{"store_misses_total", m.StoreMisses},
		{"store_writes_total", m.StoreWrites},
		{"store_errors_total", m.StoreErrors},
		{"store_corrupt_total", m.StoreCorrupt},
		{"store_remote_hits_total", m.StoreRemoteHits},
		{"store_remote_misses_total", m.StoreRemoteMisses},
		{"store_remote_writebacks_total", m.StoreRemoteWritebacks},
		{"store_remote_rejected_total", m.StoreRemoteRejected},
		{"sim_instructions_total", m.SimInstructions},
		{"sim_instructions_per_second", m.SimInstructionsPerSec},
		{"admission_rejected_total", m.AdmissionRejected},
	} {
		if err := write(row.name, row.value); err != nil {
			return n, err
		}
	}
	for _, c := range m.Classes {
		for _, row := range []struct {
			name  string
			value any
		}{
			{"class_weight", c.Weight},
			{"class_watermark", c.Watermark},
			{"class_queue_depth", c.Depth},
			{"class_admitted_total", c.Admitted},
			{"class_rejected_total", c.Rejected},
			{"class_dispatched_total", c.Dispatched},
			{"class_requeued_total", c.Requeued},
			{"class_queue_wait_seconds_total", c.QueueWaitSeconds},
		} {
			c2, err := fmt.Fprintf(w, "constable_%s{class=%q} %v\n", row.name, c.Name, row.value)
			n += int64(c2)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
