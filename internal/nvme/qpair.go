package nvme

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Coalescing configures completion-interrupt aggregation on a queue pair,
// modeled on the NVMe Interrupt Coalescing feature (Set Features 08h): an
// aggregation threshold (MaxEvents) and an aggregation time (MaxDelay). The
// device raises the CQ interrupt when MaxEvents completions have accumulated
// without a notification, or MaxDelay after the first unnotified completion,
// whichever comes first. The zero value disables coalescing: every CQE
// raises its own interrupt.
type Coalescing struct {
	// MaxEvents is the aggregation threshold; values <= 1 disable
	// coalescing.
	MaxEvents int
	// MaxDelay is the aggregation time. When coalescing is enabled and
	// MaxDelay is zero, DefaultCoalesceDelay applies, so a stalled queue
	// can never hold a posted CQE without an eventual interrupt.
	MaxDelay time.Duration
	// UrgentMax enables per-class bypass of the aggregation: a completion
	// whose command carried a non-zero Prio tag <= UrgentMax raises the CQ
	// interrupt immediately (covering everything aggregated so far)
	// instead of waiting for MaxEvents/MaxDelay. 0 disables the bypass.
	UrgentMax uint8
	// ClassDelays grades the aggregation time by completion class:
	// ClassDelays[p-1] is the aggregation-time budget for a completion
	// whose command carried priority tag p. A pending completion with a
	// shorter budget tightens the armed timer (the interrupt fires at the
	// minimum deadline across everything aggregated), so an impatient
	// class never waits out a patient one's full MaxDelay. Tags beyond the
	// table, untagged completions, and zero entries all use MaxDelay;
	// entries are clamped to MaxDelay (MaxDelay stays the worst case the
	// driver's lost-notification watchdog may assume). Nil disables
	// grading: every completion waits MaxDelay.
	ClassDelays []time.Duration
}

// delayFor returns the aggregation-time budget for a completion carrying
// priority tag prio (0 = untagged).
func (c Coalescing) delayFor(prio uint8) time.Duration {
	if prio == 0 || int(prio) > len(c.ClassDelays) {
		return c.MaxDelay
	}
	d := c.ClassDelays[prio-1]
	if d <= 0 || d > c.MaxDelay {
		return c.MaxDelay
	}
	return d
}

// GradedDelays builds a ClassDelays table for n priority tags where each
// more-urgent class halves the aggregation time: tag n (least urgent)
// waits the full maxDelay, tag n-1 half of it, and so on. The most urgent
// tags are normally also covered by UrgentMax and never consult the table.
func GradedDelays(maxDelay time.Duration, n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = maxDelay >> uint(n-1-i)
	}
	return ds
}

// DefaultCoalesceDelay is the aggregation time used when Coalescing enables
// the threshold but leaves MaxDelay zero (100µs, the granularity real NVMe
// controllers use for the aggregation-time field).
const DefaultCoalesceDelay = 100 * time.Microsecond

// enabled reports whether the configuration actually aggregates.
func (c Coalescing) enabled() bool { return c.MaxEvents > 1 }

// QueuePair is one NVMe submission/completion queue pair mapped into a
// driver's address space. The host fills SQ slots and rings the tail
// doorbell; the device posts CQEs with alternating phase bits and the host
// consumes them, updating the head doorbell.
//
// The ring indices follow the SPSC publication discipline of the zero-copy
// datapath: each cursor has exactly one writer (host side: sqTail, cqHead;
// device side: sqHead, cqTail, cqCount) and is published with an atomic
// store after the slots it covers are written, so the opposite side's atomic
// load observes fully written entries — no lock anywhere on the queue-pair
// hot path.
type QueuePair struct {
	ID    int
	dev   *Device
	depth int

	sq []SubmissionEntry
	// sqDone parallels sq: the host's completion handle for the SQE in the
	// same slot (nil if the host waits on none). It travels with the SQE
	// into the tracker that executes it, so no CID lookup is needed.
	sqDone []*sim.Completion
	sqTail atomic.Int64 // host-published: next SQ slot to fill
	sqHead atomic.Int64 // device-published: next SQ slot to consume

	cq      []CompletionEntry
	cqHead  atomic.Int64 // host-published: next CQ slot to consume
	cqTail  atomic.Int64 // device-published: next CQ slot to post
	phase   bool
	cqCount atomic.Int64 // occupied CQ slots

	// Vector is the interrupt vector the device signals on completion
	// (the MSI-X table entry AeoKern programs).
	Vector int

	// OnCompletion, if set, is invoked each time a CQE is posted — the
	// "wire" of the MSI-X interrupt. Polling drivers leave it nil.
	OnCompletion func(qp *QueuePair)

	// trackers is the fixed command-tracker table (one per queue slot,
	// like SPDK's nvme_tracker or blk-mq tags); free is the stack of idle
	// ones. A command holds a tracker from the doorbell write that hands
	// it to the device until its CQE is posted.
	trackers []tracker
	free     []*tracker

	nextCID uint16

	// coalesce is the interrupt-coalescing configuration; unNotified
	// counts CQEs posted since the last interrupt, coalesceEv is the
	// armed aggregation timer and coalesceDeadline its expiry.
	coalesce         Coalescing
	unNotified       int
	coalesceEv       sim.Timer
	coalesceDeadline time.Duration

	// Submitted counts commands accepted into the SQ.
	Submitted uint64
	// Completed counts CQEs posted.
	Completed uint64
	// SQDoorbells counts SQ tail doorbell writes; with batched submission
	// it grows slower than Submitted.
	SQDoorbells uint64
	// MaxSQBurst is the largest number of commands one doorbell write
	// handed to the device.
	MaxSQBurst int
	// IRQRaised counts CQ interrupts actually raised; IRQCoalesced counts
	// completions that were aggregated into a later interrupt instead of
	// raising their own; IRQSuppressed counts aggregations cancelled
	// because the host drained the CQ by polling first. Atomic so tests
	// and monitors may read them while a simulation goroutine mutates.
	IRQRaised     atomic.Uint64
	IRQCoalesced  atomic.Uint64
	IRQSuppressed atomic.Uint64
	// IRQBypassed counts urgent-class completions that bypassed an armed
	// aggregation and raised their interrupt immediately (Coalescing.UrgentMax).
	IRQBypassed atomic.Uint64
}

// emit records a trace event against the owning device's engine; a no-op
// when tracing is off. Queue-side events have no core context (core -1).
func (qp *QueuePair) emit(typ trace.Type, cid uint32, lba, aux uint64) {
	if tr := qp.dev.eng.Tracer; tr != nil {
		tr.Emit(qp.dev.eng.Now(), typ, -1, qp.ID, cid, lba, aux)
	}
}

func newQueuePair(d *Device, id, depth int) *QueuePair {
	qp := &QueuePair{
		ID:       id,
		dev:      d,
		depth:    depth,
		sq:       make([]SubmissionEntry, depth),
		sqDone:   make([]*sim.Completion, depth),
		cq:       make([]CompletionEntry, depth),
		phase:    true,
		trackers: make([]tracker, depth),
		free:     make([]*tracker, depth),
	}
	for i := range qp.trackers {
		t := &qp.trackers[i]
		t.qp = qp
		qp.free[depth-1-i] = t
	}
	return qp
}

// tracker is the device-side state of one in-flight command: the fetched
// SQE, the host's completion handle, and the outcome the device will post.
type tracker struct {
	qp   *QueuePair
	sqe  SubmissionEntry
	done *sim.Completion
	// status is the completion status to post; torn is the prefix of a
	// torn write that reaches the write cache before the command fails.
	status Status
	torn   []byte
	// fire is complete bound once, on the tracker's first use, so every
	// later command schedules it without building a closure.
	fire func()
}

// FreeTrackers returns the number of idle command trackers; together with
// the commands in flight it always equals the queue depth.
func (qp *QueuePair) FreeTrackers() int { return len(qp.free) }

// Depth returns the queue depth.
func (qp *QueuePair) Depth() int { return qp.depth }

// SetCoalescing configures CQ interrupt coalescing. Reconfiguring an active
// queue flushes any armed aggregation immediately so no completion is
// stranded under the old thresholds.
func (qp *QueuePair) SetCoalescing(c Coalescing) {
	if c.enabled() && c.MaxDelay <= 0 {
		c.MaxDelay = DefaultCoalesceDelay
	}
	if qp.unNotified > 0 {
		qp.raiseCoalesced()
	}
	qp.coalesce = c
}

// CoalescingConfig returns the active coalescing configuration.
func (qp *QueuePair) CoalescingConfig() Coalescing { return qp.coalesce }

// NotifyPending reports whether completions are sitting in the CQ waiting
// for the coalescing aggregation to raise their interrupt. Watchdogs use it
// to distinguish an intentionally-held notification from a lost one.
func (qp *QueuePair) NotifyPending() bool { return qp.unNotified > 0 }

// CoalesceDeadline returns the armed aggregation timer's expiry (only
// meaningful while NotifyPending).
func (qp *QueuePair) CoalesceDeadline() time.Duration { return qp.coalesceDeadline }

// Inflight returns the number of commands submitted whose CQE has not yet
// been posted.
func (qp *QueuePair) Inflight() int {
	return int(qp.Submitted - qp.Completed)
}

// ErrSQFull is returned by Submit when the submission queue has no free
// slot.
var ErrSQFull = errors.New("nvme: submission queue full")

// ErrDoorbell is returned for out-of-range or inconsistent doorbell writes
// (a real controller would raise an asynchronous "invalid doorbell write
// value" error, AER status 0x1).
var ErrDoorbell = errors.New("nvme: invalid doorbell write")

// Submit places a command into the submission queue and rings the tail
// doorbell, returning the CID it assigned. done, if non-nil, is the
// caller-owned completion fired when the CQE is posted. The caller must not
// reuse e.Data until completion.
func (qp *QueuePair) Submit(e SubmissionEntry, done *sim.Completion) (cid uint16, err error) {
	if qp.Inflight() >= qp.depth-1 {
		return 0, fmt.Errorf("%w: queue %d", ErrSQFull, qp.ID)
	}
	qp.nextCID++
	e.CID = qp.nextCID
	tail := int(qp.sqTail.Load())
	qp.sq[tail] = e
	qp.sqDone[tail] = done
	qp.emit(trace.SQEPrep, uint32(e.CID), e.SLBA, uint64(e.NLB))

	// Ringing the doorbell hands the command to the device.
	if err := qp.WriteSQDoorbell((tail + 1) % qp.depth); err != nil {
		qp.sqDone[tail] = nil
		return 0, err
	}
	return e.CID, nil
}

// SubmitBatch places all entries into the submission queue and rings the
// tail doorbell once — the batched-submission hot path: N commands, one
// MMIO write, and the device drains the whole burst. done is nil or
// parallel to entries: done[i], if non-nil, fires when entry i's CQE is
// posted. Entry i gets CID first+i (uint16 arithmetic, so CIDs wrap). The
// batch is all-or-nothing: if the SQ lacks room for every entry, nothing is
// enqueued and ErrSQFull is returned. Callers must not reuse any entry's
// Data until its completion fires.
func (qp *QueuePair) SubmitBatch(entries []SubmissionEntry, done []*sim.Completion) (first uint16, err error) {
	n := len(entries)
	if n == 0 {
		return 0, nil
	}
	if qp.Inflight()+n > qp.depth-1 {
		return 0, fmt.Errorf("%w: queue %d (batch %d, free %d)",
			ErrSQFull, qp.ID, n, qp.depth-1-qp.Inflight())
	}
	first = qp.nextCID + 1
	start := int(qp.sqTail.Load())
	tail := start
	for i, e := range entries {
		qp.nextCID++
		e.CID = qp.nextCID
		qp.sq[tail] = e
		if done != nil {
			qp.sqDone[tail] = done[i]
		}
		tail = (tail + 1) % qp.depth
		qp.emit(trace.SQEPrep, uint32(e.CID), e.SLBA, uint64(e.NLB))
	}
	if err := qp.WriteSQDoorbell(tail); err != nil {
		for i := 0; i < n; i++ {
			qp.sqDone[(start+i)%qp.depth] = nil
		}
		return 0, err
	}
	return first, nil
}

// WriteSQDoorbell writes the submission-queue tail doorbell: the device
// consumes every SQ slot from the current head up to (excluding) tail,
// binding each SQE to a free command tracker. An out-of-range value, or one
// that would put more commands in flight than there are free trackers, is
// rejected with the rings untouched, like a controller flagging an invalid
// doorbell write instead of reading garbage entries.
func (qp *QueuePair) WriteSQDoorbell(tail int) error {
	if tail < 0 || tail >= qp.depth {
		return fmt.Errorf("%w: SQ tail %d (depth %d)", ErrDoorbell, tail, qp.depth)
	}
	head := int(qp.sqHead.Load())
	burst := (tail - head + qp.depth) % qp.depth
	if burst > len(qp.free) {
		return fmt.Errorf("%w: SQ tail %d dispatches %d commands, %d trackers free",
			ErrDoorbell, tail, burst, len(qp.free))
	}
	qp.SQDoorbells++
	if burst > qp.MaxSQBurst {
		qp.MaxSQBurst = burst
	}
	qp.emit(trace.DoorbellWrite, trace.NoCID, 0, uint64(burst))
	// Publish the new tail before the device consumes: the slots it covers
	// are fully written above.
	qp.sqTail.Store(int64(tail))
	for head != tail {
		t := qp.free[len(qp.free)-1]
		qp.free = qp.free[:len(qp.free)-1]
		t.sqe = qp.sq[head]
		t.done = qp.sqDone[head]
		qp.sqDone[head] = nil
		head = (head + 1) % qp.depth
		qp.sqHead.Store(int64(head))
		qp.Submitted++
		qp.dev.process(t)
	}
	return nil
}

// WriteCQDoorbell writes the completion-queue head doorbell, releasing the
// consumed CQ slots back to the device. The head may only advance over
// occupied slots; moving it past the tail (or out of range) is rejected.
func (qp *QueuePair) WriteCQDoorbell(head int) error {
	if head < 0 || head >= qp.depth {
		return fmt.Errorf("%w: CQ head %d (depth %d)", ErrDoorbell, head, qp.depth)
	}
	dist := (head - int(qp.cqHead.Load()) + qp.depth) % qp.depth
	if dist > int(qp.cqCount.Load()) {
		return fmt.Errorf("%w: CQ head %d advances past tail %d", ErrDoorbell, head, qp.cqTail.Load())
	}
	qp.cqHead.Store(int64(head))
	qp.cqCount.Add(int64(-dist))
	return nil
}

// postCompletion is called by the device when a command finishes: it posts
// the CQE, fires the host's completion handle (if any) and signals the
// interrupt, with prio the command's priority tag.
func (qp *QueuePair) postCompletion(cid uint16, st Status, done *sim.Completion, prio uint8) {
	if int(qp.cqCount.Load()) == qp.depth {
		// A real device would stall; with SQ depth == CQ depth this
		// cannot happen unless the host never consumes CQEs it was
		// notified about.
		panic("nvme: completion queue overflow")
	}
	tail := int(qp.cqTail.Load())
	qp.cq[tail] = CompletionEntry{
		CID:    cid,
		Status: st,
		SQHead: uint16(qp.sqHead.Load()),
		Phase:  qp.phase,
	}
	tail = (tail + 1) % qp.depth
	// The phase bit makes the freshly written CQE self-describing; the tail
	// publication follows the slot write, mirroring the SQ side.
	qp.cqTail.Store(int64(tail))
	if tail == 0 {
		qp.phase = !qp.phase
	}
	qp.cqCount.Add(1)
	qp.Completed++
	qp.emit(trace.CQEPost, uint32(cid), 0, uint64(st))

	// The command's completion handle fires when its CQE becomes visible:
	// this is the instant a poller could discover it.
	if done != nil {
		done.FireAt(qp.dev.eng.Now())
	}
	qp.signalCompletion(cid, prio)
}

// signalCompletion decides whether the freshly posted CQE (cid) raises the
// CQ interrupt now, joins an armed aggregation, or starts one. An
// urgent-tagged completion (prio <= UrgentMax, non-zero) never waits:
// it fires the interrupt immediately, covering everything aggregated so
// far.
func (qp *QueuePair) signalCompletion(cid uint16, prio uint8) {
	if qp.OnCompletion == nil {
		return
	}
	if !qp.coalesce.enabled() {
		qp.IRQRaised.Add(1)
		qp.emit(trace.IRQRaise, uint32(cid), 0, 1)
		qp.OnCompletion(qp)
		return
	}
	qp.unNotified++
	if qp.coalesce.UrgentMax > 0 && prio != 0 && prio <= qp.coalesce.UrgentMax {
		qp.IRQBypassed.Add(1)
		qp.emit(trace.IRQBypass, uint32(cid), 0, uint64(qp.unNotified))
		qp.raiseCoalesced()
		return
	}
	if qp.unNotified >= qp.coalesce.MaxEvents {
		qp.raiseCoalesced()
		return
	}
	qp.IRQCoalesced.Add(1)
	qp.emit(trace.IRQCoalesce, uint32(cid), 0, uint64(qp.unNotified))
	deadline := qp.dev.eng.Now() + qp.coalesce.delayFor(prio)
	if !qp.coalesceEv.Armed() {
		qp.armCoalesce(deadline)
	} else if deadline < qp.coalesceDeadline {
		// A more impatient class joined the aggregation: tighten the armed
		// timer to its budget. The deadline only ever moves earlier.
		qp.coalesceEv.Cancel()
		qp.armCoalesce(deadline)
	}
}

// armCoalesce schedules the aggregation timer to fire at deadline.
func (qp *QueuePair) armCoalesce(deadline time.Duration) {
	qp.coalesceDeadline = deadline
	qp.coalesceEv = qp.dev.eng.Schedule(deadline-qp.dev.eng.Now(), func() {
		qp.coalesceEv = sim.Timer{}
		if qp.unNotified > 0 {
			qp.raiseCoalesced()
		}
	})
}

// raiseCoalesced fires the aggregated CQ interrupt and resets the
// aggregation state.
func (qp *QueuePair) raiseCoalesced() {
	if qp.coalesceEv.Armed() {
		qp.coalesceEv.Cancel()
	}
	qp.coalesceEv = sim.Timer{}
	covered := qp.unNotified
	qp.unNotified = 0
	if qp.OnCompletion == nil {
		return
	}
	qp.IRQRaised.Add(1)
	qp.emit(trace.IRQRaise, trace.NoCID, 0, uint64(covered))
	qp.OnCompletion(qp)
}

// Poll consumes up to max CQEs (0 = all available), appends them to dst and
// returns the extended slice; a caller that passes a reused buffer (buf[:0])
// polls without allocating. This is the polling/interrupt-handler consume
// path; it advances the CQ head doorbell.
func (qp *QueuePair) Poll(dst []CompletionEntry, max int) []CompletionEntry {
	for n := 0; qp.cqCount.Load() > 0 && (max == 0 || n < max); n++ {
		head := int(qp.cqHead.Load())
		ce := qp.cq[head]
		qp.cqHead.Store(int64((head + 1) % qp.depth))
		qp.cqCount.Add(-1)
		dst = append(dst, ce)
		qp.emit(trace.CQEConsume, uint32(ce.CID), 0, uint64(ce.Status))
	}
	if qp.cqCount.Load() == 0 && qp.unNotified > 0 {
		// The host consumed every aggregated CQE by polling; the armed
		// interrupt would only find an empty queue, so suppress it.
		qp.IRQSuppressed.Add(uint64(qp.unNotified))
		qp.emit(trace.IRQSuppress, trace.NoCID, 0, uint64(qp.unNotified))
		qp.unNotified = 0
		if qp.coalesceEv.Armed() {
			qp.coalesceEv.Cancel()
		}
		qp.coalesceEv = sim.Timer{}
	}
	return dst
}

// Ring-state accessors for invariant checking (property tests): the SQ
// head/tail and CQ head/tail indices and the device's current phase bit.
// All index reads are atomic loads of the publishing side's cursor.
func (qp *QueuePair) SQHead() int     { return int(qp.sqHead.Load()) }
func (qp *QueuePair) SQTail() int     { return int(qp.sqTail.Load()) }
func (qp *QueuePair) CQHead() int     { return int(qp.cqHead.Load()) }
func (qp *QueuePair) CQTail() int     { return int(qp.cqTail.Load()) }
func (qp *QueuePair) PhaseBit() bool  { return qp.phase }
func (qp *QueuePair) CQOccupied() int { return int(qp.cqCount.Load()) }

// HasCompletions reports whether unconsumed CQEs are pending (the check a
// shared-vector interrupt handler performs to identify the source, §4.2).
func (qp *QueuePair) HasCompletions() bool { return qp.cqCount.Load() > 0 }
