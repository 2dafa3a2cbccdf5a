package rapidd

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/journal"
)

// Journal recovery: a restarted daemon replays the write-ahead log and
// gives every job the previous daemon had acknowledged an explicit fate —
// nothing is silently dropped:
//
//   - submitted but never admitted (it was waiting in the queue or at
//     admission): re-queued and executed by this daemon, marked Recovered;
//   - admitted (it was executing when the daemon died): failed explicitly
//     with a restart error — its execution may have been mid-flight and
//     partial results are not trustworthy, but the client polling
//     GET /v1/jobs/{id} sees a definite terminal answer;
//   - cancelled before a worker observed the cancellation: failed
//     explicitly as cancelled;
//   - already terminal: skipped — the client got its answer from the
//     previous daemon (compaction eventually drops these records).
//
// The ID counter resumes past the journal's high-water mark, so job IDs
// never collide across restarts.

// replayedJob folds one job's journal records.
type replayedJob struct {
	seq       uint64
	id        string
	tenant    string
	priority  string
	spec      []byte
	admitted  bool
	cancelled bool
	terminal  bool
}

// recover rebuilds server state from a journal replay. Called from Open
// before the workers start, so recovered jobs enter the queue in their
// original submission order ahead of any new traffic.
func (s *Server) recover(rep *journal.Replay) {
	if rep.TruncatedBytes > 0 {
		s.metrics.Inc("rapidd.journal.truncated_bytes", rep.TruncatedBytes)
	}
	jobs := make(map[string]*replayedJob)
	var order []*replayedJob
	for _, rec := range rep.Records {
		switch rec.Op {
		case journal.OpSubmit:
			if _, dup := jobs[rec.ID]; dup {
				// Belt and braces: the journal's compaction-root handling
				// should make a duplicate submit impossible; if one slips
				// through anyway, requeueing the same ID twice would
				// double-execute the job and double-book its admission.
				s.metrics.Inc("rapidd.journal.duplicate_submits", 1)
				continue
			}
			rj := &replayedJob{
				seq: rec.Seq, id: rec.ID, tenant: rec.Tenant,
				priority: rec.Priority, spec: rec.Spec,
			}
			jobs[rec.ID] = rj
			order = append(order, rj)
		case journal.OpAdmit:
			if rj := jobs[rec.ID]; rj != nil {
				rj.admitted = true
			}
		case journal.OpCancel:
			if rj := jobs[rec.ID]; rj != nil {
				rj.cancelled = true
			}
		case journal.OpComplete:
			if rj := jobs[rec.ID]; rj != nil {
				rj.terminal = true
			}
		}
	}
	s.seq = s.jnl.HighSeq()
	sort.Slice(order, func(i, k int) bool { return order[i].seq < order[k].seq })
	for _, rj := range order {
		if rj.terminal {
			continue
		}
		switch {
		case rj.admitted:
			s.recoverFailed(rj, "rapidd: daemon restarted while the job was executing")
			s.metrics.Inc("rapidd.journal.failed_inflight", 1)
		case rj.cancelled:
			s.recoverFailed(rj, "rapidd: cancelled before the restart")
			s.metrics.Inc("rapidd.journal.failed_cancelled", 1)
		default:
			s.requeue(rj)
		}
	}
}

// recoverFailed materializes a journal job directly in a terminal failed
// state, with the completion record the previous daemon never wrote.
func (s *Server) recoverFailed(rj *replayedJob, msg string) {
	spec, err := parseJobSpec(rj.spec, rj.tenant)
	if err != nil {
		// The spec was validated before it was journaled; an unreadable
		// one here means a decoding drift — keep the tenant for
		// accounting and fail the job with both causes visible.
		spec = JobSpec{Tenant: rj.tenant, Priority: rj.priority}
		msg = fmt.Sprintf("%s (spec unreadable at replay: %v)", msg, err)
	}
	done := make(chan struct{})
	close(done)
	s.mu.Lock()
	j := &Job{
		ID: rj.id, Seq: rj.seq, Spec: spec, Status: StatusFailed,
		Error: msg, Recovered: true, Durable: true,
	}
	s.jobs[rj.id] = j
	s.done[rj.id] = done
	s.retireLocked(j)
	s.tenantStatLocked(rj.tenant).recovered++
	s.tenantStatLocked(rj.tenant).failed++
	s.mu.Unlock()
	s.metrics.Inc("rapidd.jobs.failed", 1)
	s.journalAppend(journal.Record{
		Op: journal.OpComplete, ID: rj.id, Status: string(StatusFailed), Error: msg,
	})
}

// requeue re-enqueues a journal job that never started executing. The
// queue reservation is forced: the previous daemon already accepted this
// job, so priority shedding does not apply to it again.
func (s *Server) requeue(rj *replayedJob) {
	spec, err := parseJobSpec(rj.spec, rj.tenant)
	if err != nil {
		s.recoverFailed(rj, "rapidd: unreadable spec at replay")
		return
	}
	prio, _ := parsePriority(spec.Priority)
	ctx, cancel := context.WithCancel(context.Background())
	if s.cfg.DefaultDeadline > 0 || spec.DeadlineMS > 0 {
		// The original submission clock died with the old daemon; the
		// deadline restarts here, bounding the recovered execution.
		deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
		if deadline == 0 {
			deadline = s.cfg.DefaultDeadline
		}
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
	}
	slot, _ := s.queue.reserve(spec.Tenant, prio, true)
	tk := &task{
		id: rj.id, spec: spec, prio: prio,
		vstart: slot.vstart, vfinish: slot.vfinish,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[rj.id] = &Job{ID: rj.id, Seq: rj.seq, Spec: spec, Status: StatusPending, Recovered: true, Durable: true}
	s.done[rj.id] = tk.done
	s.cancels[rj.id] = cancel
	ts := s.tenantStatLocked(spec.Tenant)
	ts.recovered++
	ts.submitted++
	s.mu.Unlock()
	s.queue.commit(slot, tk)
	s.metrics.Inc("rapidd.journal.recovered", 1)
	s.metrics.Inc("rapidd.jobs.submitted", 1)
}
