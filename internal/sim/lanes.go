package sim

import (
	"sync"
	"time"
)

// Conservative parallel lanes.
//
// A lane is a group of cores (usually one) plus the calendar shard holding
// their events. Cross-lane interaction in this stack flows exclusively
// through scheduled events with a minimum latency (netsim links): an event
// executing at time t can only affect another lane at t + Lookahead or
// later. So all events in [base, end) with end <= base + Lookahead are
// mutually independent across lanes and may execute concurrently — the
// classic conservative-PDES window.
//
// Determinism is preserved by construction, not by luck:
//
//   - Each lane executes its own window events in (at, seq) order on a
//     private clock; window-born same-lane events join the lane's heap
//     with tentative sequence numbers (tentBit|counter) that order after
//     every real sequence number at equal timestamps — the same relative
//     order a serial run produces, since serially they would have been
//     assigned larger sequence numbers too.
//   - Emissions are buffered per executed event. The merge replays the
//     executed events in global (at, seq) order and hands out real
//     sequence numbers to their emissions in program order — exactly the
//     order the serial engine would have assigned them. Cancelled
//     window-born events still consume a number, as they would have
//     serially.
//   - Cross-lane emissions inside the window, unattributed engine calls,
//     and Spawn during a window all panic: each would be an interaction
//     the lookahead bound promised could not happen.
//
// Lane 0 (the engine lane: unattributed events, harness timers) is never
// parallelized; windows are capped at its next event.

// window is one parallel execution window.
type window struct {
	end time.Duration
	lcs []*laneCtx // indexed by lane id; nil for non-participants
}

// laneCtx is one lane's execution state inside a window. It is written by
// exactly one lane goroutine between the start barrier and the join; the
// engine reads it only after the join.
type laneCtx struct {
	lane int32
	now  time.Duration // lane-local clock
	end  time.Duration

	wheap eventHeap // this lane's window events, (at, seq)-ordered
	cur   *Event    // event currently executing (emission buffer target)
	tent  uint64    // tentative sequence counter

	done    []*Event // executed events, in execution order
	recycle []*Event // cancelled nodes to recycle at the merge

	panicv any // recovered panic, re-raised by the engine after the join
}

// parallelReady reports whether the engine may open a parallel window for
// an event at time at.
func (e *Engine) parallelReady(at time.Duration) bool {
	cfg := &e.Config
	return cfg.ParallelLanes &&
		cfg.Lookahead > 0 &&
		e.Tracer == nil &&
		len(e.cal.shards) > 1 &&
		at >= cfg.ParallelAfter
}

// runWindow plans and executes one parallel window starting at base.
// It returns false (having changed nothing) when fewer than two lanes
// would participate; the caller falls back to the serial path.
func (e *Engine) runWindow(base, until time.Duration) bool {
	end := base + e.Config.Lookahead
	if until > 0 && end > until+1 {
		// Events at exactly the horizon must still run; past it they must
		// not. Virtual time is integer nanoseconds, so until+1 is tight.
		end = until + 1
	}
	// The engine lane executes serially: cap the window at its next event.
	if s0 := e.cal.shards[0]; len(s0.h) > 0 && s0.h[0].at < end {
		end = s0.h[0].at
	}
	if end <= base {
		return false
	}
	participants := 0
	for _, s := range e.cal.shards[1:] {
		if len(s.h) > 0 && s.h[0].at < end {
			participants++
		}
	}
	if participants < 2 {
		return false
	}

	// Detach each participating lane's window events from its shard. The
	// top index goes stale here; it is rebuilt wholesale at the merge.
	w := &window{end: end, lcs: make([]*laneCtx, len(e.cal.shards))}
	var parts []*laneCtx
	for _, s := range e.cal.shards[1:] {
		if len(s.h) == 0 || s.h[0].at >= end {
			continue
		}
		lc := &laneCtx{lane: int32(s.id), now: e.now, end: end}
		for len(s.h) > 0 && s.h[0].at < end {
			ev := s.h.pop()
			ev.state = evWindow
			lc.wheap.push(ev)
		}
		w.lcs[s.id] = lc
		parts = append(parts, lc)
	}

	e.win = w
	var wg sync.WaitGroup
	for _, lc := range parts {
		wg.Add(1)
		go func(lc *laneCtx) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					lc.panicv = r
				}
			}()
			lc.run()
		}(lc)
	}
	wg.Wait()
	e.win = nil

	e.merge(parts)
	return true
}

// run executes the lane's window events in (at, seq) order. It runs on a
// dedicated goroutine; everything it touches transitively (its shard, its
// cores, their tasks and runqueues) belongs to this lane for the duration.
func (lc *laneCtx) run() {
	for len(lc.wheap) > 0 {
		ev := lc.wheap.pop()
		if ev.at < lc.now {
			panic("sim: time went backwards in lane")
		}
		lc.now = ev.at
		ev.state = evDone
		fn := ev.fn
		ev.fn = nil
		lc.cur = ev
		fn()
		lc.cur = nil
		lc.done = append(lc.done, ev)
	}
}

// merge folds a finished window back into serial state: advance the global
// clock, rebuild the calendar's top index, replay the executed events in
// serial order to hand out real sequence numbers to their emissions, and
// recycle every retired node.
func (e *Engine) merge(parts []*laneCtx) {
	for _, lc := range parts {
		if lc.panicv != nil {
			panic(lc.panicv)
		}
	}
	for _, lc := range parts {
		if lc.now > e.now {
			e.now = lc.now
		}
	}
	// Detachment and deferred cancels left multiple shard heads changed;
	// fix is only sound for one violation, so rebuild from scratch.
	e.cal.rebuildTop()

	// Replay. Seed the ready heap with the executed events that already
	// carry real sequence numbers (the pre-window detachments); executed
	// window-born events become ready the moment their parent's replay
	// assigns their number. Popping (at, seq)-minimum then reproduces the
	// serial execution order, so e.seq++ hands out exactly the numbers a
	// serial run would have.
	var ready eventHeap
	total := 0
	for _, lc := range parts {
		total += len(lc.done)
		for _, ev := range lc.done {
			if ev.seq&tentBit == 0 {
				ready.push(ev)
			}
		}
	}
	processed := 0
	for len(ready) > 0 {
		p := ready.pop()
		processed++
		for _, em := range p.emits {
			e.seq++
			em.seq = e.seq
			switch {
			case em.state == evDone:
				ready.push(em)
			case em.cancelled:
				e.free(em)
			default:
				// A live emission beyond the window (or cross-lane):
				// becomes an ordinary pending event.
				em.state = evPending
				e.cal.push(em)
			}
		}
		e.free(p)
	}
	if processed != total {
		panic("sim: lane merge lost executed events")
	}
	for _, lc := range parts {
		for _, ev := range lc.recycle {
			e.free(ev)
		}
	}
	e.stats.Windows++
	e.stats.WindowEvents += uint64(total)
}
