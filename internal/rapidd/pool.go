package rapidd

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/journal"
)

// The serving layer: a bounded pool of worker goroutines executes admitted
// jobs in parallel. Requests enter through a bounded queue that drains
// weighted-fair across tenants (wfq.go) — a full backlog sheds the
// request with 429 + Retry-After, low priority first, instead of letting
// the backlog (and every queued client's latency) grow without bound.
// Workers coalesce identical in-flight specs onto a single execution
// (single-flight, the same mechanism the plan cache uses for compiles),
// enforce per-job deadlines, and drain gracefully on shutdown.
//
// Concurrency safety comes from the layers below: concurrent jobs share
// AVAIL_MEM (and their tenant's sub-quota) through the admission
// controller — each books its aggregate planned peak before executing —
// and the plan cache is already single-flight per fingerprint, so a burst
// of distinct requests for one new structure compiles it once.

// task is one queued execution: the job ID plus the request-scoped
// context that carries its deadline/cancellation, stamped with its
// weighted-fair-queueing virtual times at reservation.
type task struct {
	id   string
	spec JobSpec
	prio int
	// vstart/vfinish are the WFQ virtual-clock stamps (see wfq.go).
	vstart, vfinish float64
	// submittedAt feeds the latency histograms; zero for recovered jobs.
	submittedAt time.Time
	ctx         context.Context
	cancel      context.CancelFunc
	done        chan struct{}
}

// outcome is a terminal job snapshot, shared between a coalesced group's
// leader and its followers.
type outcome struct {
	job Job
	// err is the leader's terminal cause with its identity intact —
	// rebuilding it from the job's error string would lose
	// errors.Is(err, context.DeadlineExceeded/Canceled), and with it the
	// followers' expired/cancelled classification in setTerminal.
	err error
}

// worker pulls tasks in weighted-fair order until the queue is closed by
// Drain and fully drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		tk := s.queue.next()
		if tk == nil {
			return
		}
		s.process(tk)
	}
}

// process drives one task to a terminal state. Identical specs already
// executing are joined rather than re-executed: followers block on the
// leader's flight and adopt its result. The spec is the coalescing key
// (marshalled canonically), which is strictly finer than the plan
// fingerprint — two specs that differ only in execution-relevant fields
// (tenant, priority, verify, hold, fault mix, deadline) never merge,
// while the plan cache still deduplicates their compile by fingerprint
// underneath.
func (s *Server) process(tk *task) {
	defer close(tk.done)
	defer func() {
		tk.cancel()
		s.mu.Lock()
		delete(s.cancels, tk.id)
		s.mu.Unlock()
	}()
	if !tk.submittedAt.IsZero() {
		s.queueWait.Observe(time.Since(tk.submittedAt).Microseconds())
	}
	if err := tk.ctx.Err(); err != nil {
		s.failFast(tk.id, fmt.Errorf("rapidd: job expired before execution: %w", err))
		return
	}
	v, shared, _ := s.flights.DoNotify(coalesceKey(tk.spec), func() (any, error) {
		return s.runJob(tk), nil
	}, func() { s.metrics.Inc("rapidd.jobs.coalesced", 1) })
	if !shared {
		return // leader already updated its own record inside runJob
	}
	oc, _ := v.(*outcome)
	s.adoptOutcome(tk.id, oc)
}

// coalesceKey canonicalizes a normalized spec. Equal keys imply equal
// fingerprints AND equal execution semantics, so sharing one execution is
// observationally identical to running both (all generators and fault
// plans are deterministic in the spec).
func coalesceKey(spec JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// A JobSpec of scalars cannot fail to marshal; fall back to an
		// uncoalescable key rather than wrongly merging.
		return fmt.Sprintf("nocoalesce-%p", &spec)
	}
	return string(b)
}

// runJob is the leader path: compile → admit → execute with the bounded
// fault-retry loop, exactly as the serial daemon ran jobs, but bounded by
// the task's context. Returns the terminal snapshot for followers.
func (s *Server) runJob(tk *task) *outcome {
	var err error
	for attempt := 0; ; attempt++ {
		s.update(tk.id, func(j *Job) { j.Attempts = attempt + 1 })
		err = s.attempt(tk.ctx, tk.id, tk.spec, attempt)
		if err == nil {
			return &outcome{job: s.setTerminal(tk.id, StatusDone, nil)}
		}
		if tk.ctx.Err() != nil || !faultsFor(tk.spec, attempt).Enabled() || attempt >= s.cfg.MaxJobRetries {
			break
		}
		s.metrics.Inc("rapidd.jobs.retried", 1)
		select {
		case <-time.After(s.cfg.RetryBackoff << attempt):
		case <-tk.ctx.Done():
		}
	}
	return &outcome{job: s.setTerminal(tk.id, StatusFailed, err), err: err}
}

// setTerminal is the one exit gate of every job: it publishes the final
// status, appends the journal completion record (making the terminal
// state durable — replay will not resurrect this job), bumps the global
// and per-tenant counters, and feeds the latency summary. It returns a
// copy of the terminal record.
func (s *Server) setTerminal(id string, st JobStatus, jobErr error) Job {
	errStr := ""
	if jobErr != nil {
		errStr = jobErr.Error()
	}
	s.mu.Lock()
	j := s.jobs[id]
	j.Status = st
	j.Error = errStr
	ts := s.tenantStatLocked(j.Spec.Tenant)
	if st == StatusDone {
		ts.completed++
	} else {
		ts.failed++
		if errors.Is(jobErr, context.DeadlineExceeded) {
			ts.expired++
		}
	}
	submittedAt := j.submittedAt
	rec := *j
	s.retireLocked(j)
	s.mu.Unlock()

	if st == StatusDone {
		s.metrics.Inc("rapidd.jobs.completed", 1)
	} else {
		s.metrics.Inc("rapidd.jobs.failed", 1)
		switch {
		case errors.Is(jobErr, context.DeadlineExceeded):
			s.metrics.Inc("rapidd.jobs.deadline_expired", 1)
		case errors.Is(jobErr, context.Canceled):
			s.metrics.Inc("rapidd.jobs.cancelled", 1)
		}
	}
	if !submittedAt.IsZero() {
		s.latency.Observe(time.Since(submittedAt).Microseconds())
	}
	s.journalAppend(journal.Record{Op: journal.OpComplete, ID: id, Status: string(st), Error: errStr})
	return rec
}

// maxFinishedJobs bounds the terminal job records the daemon keeps for
// GET /v1/jobs and /v1/jobs/{id}. Past it, the finished job with the
// lowest Seq is forgotten (404 from then on); pending, queued and running
// jobs are never evicted. At a few thousand jobs/s a finished record stays
// readable for tens of seconds, long enough for a client that polls.
const maxFinishedJobs = 1 << 16

// retireLocked records j as finished. It first evicts the oldest finished
// records until fewer than finishedCap remain, so j itself is never
// evicted by its own transition and the waiters it is about to wake still
// find it.
func (s *Server) retireLocked(j *Job) {
	for s.finished.Len() >= s.finishedCap {
		old := heap.Pop(&s.finished).(*Job)
		delete(s.jobs, old.ID)
		delete(s.done, old.ID)
	}
	heap.Push(&s.finished, j)
}

// seqHeap is a container/heap min-heap of job records by Seq.
type seqHeap []*Job

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, k int) bool { return h[i].Seq < h[k].Seq }
func (h seqHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(*Job)) }
func (h *seqHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return j
}

// adoptOutcome copies a leader's terminal result into a follower's
// record, marking the follower as coalesced.
func (s *Server) adoptOutcome(id string, oc *outcome) {
	if oc == nil {
		s.failFast(id, errors.New("rapidd: coalesced execution returned no result"))
		return
	}
	src := oc.job
	s.update(id, func(j *Job) {
		j.Error = src.Error
		j.PlanSource = src.PlanSource
		j.Fingerprint = src.Fingerprint
		j.Replanned = src.Replanned
		j.DemandUnits = src.DemandUnits
		j.Tasks = src.Tasks
		j.Objects = src.Objects
		j.Attempts = src.Attempts
		j.Retransmits = src.Retransmits
		j.MAPs = src.MAPs
		j.PeakUnits = src.PeakUnits
		j.Residual = src.Residual
		j.VerifyFindings = src.VerifyFindings
		j.InspectMS = src.InspectMS
		j.ExecMS = src.ExecMS
		j.StateUS = src.StateUS
		j.Coalesced = true
		j.CoalescedWith = src.ID
	})
	err := oc.err
	if err == nil && src.Status != StatusDone && src.Error != "" {
		err = errors.New(src.Error)
	}
	s.setTerminal(id, src.Status, err)
}

// failFast marks a job failed without executing anything.
func (s *Server) failFast(id string, err error) {
	s.setTerminal(id, StatusFailed, err)
}

// Cancel aborts the job if it is still pending or waiting for admission;
// a job already executing runs to completion (the executor owns its
// goroutines). Returns false for unknown jobs. The cancellation is
// journaled so a crash between Cancel and the worker observing it does
// not resurrect the job at replay.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	cancel, ok := s.cancels[id]
	s.mu.Unlock()
	if ok {
		s.journalAppend(journal.Record{Op: journal.OpCancel, ID: id})
		cancel()
	}
	return ok
}

// Drain stops intake — new solve requests are refused with 503 — closes
// the queue, and waits for the workers to finish the backlog. Safe to
// call more than once. If ctx expires first, the workers keep draining in
// the background and the error reports the interruption. The journal is
// closed once the workers are done (every in-flight job has written its
// completion record), so a clean shutdown replays to an empty live set.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.close()
	}
	s.mu.Unlock()
	// Stop the health plane's re-arm loop (it is wg-tracked, so the wait
	// below covers it); a drained daemon no longer promises durability.
	s.stopHealth()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.jnl != nil {
			s.jnl.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rapidd: drain interrupted with jobs still in flight: %w", ctx.Err())
	}
}
