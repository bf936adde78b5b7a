package sim

import "time"

// Event lifecycle states. Nodes cycle through the engine's free pool; the
// generation counter in Timer makes stale handles to recycled nodes inert.
const (
	evFree    uint8 = iota // in the free pool, awaiting reuse
	evPending              // queued in its lane's calendar shard
	evWindow               // detached into a lane's in-window heap
	evEmitted              // created during a parallel window, awaiting merge
	evDone                 // fired (or executed inside a window, pre-merge)
)

// tentBit marks a tentative (in-window, pre-merge) sequence number. Real
// sequence numbers stay far below it, so at equal timestamps every
// pre-window event orders before every window-born one — exactly the order
// a serial run produces, since window-born events would have been assigned
// larger sequence numbers there too.
const tentBit = uint64(1) << 63

// Event is a scheduled callback in virtual time. Events are ordered by time
// and, for equal times, by insertion sequence, which makes runs fully
// deterministic. Event nodes are pooled and recycled after firing; callers
// hold Timer handles, never *Event.
type Event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	eng       *Engine
	gen       uint64 // bumped on every recycle; Timer handles check it
	lane      int32  // the lane whose shard/window owns the event
	state     uint8
	cancelled bool // evEmitted only: cancelled before the merge
	index     int  // heap index in whichever heap holds the node

	// emits collects the events scheduled while this event executed inside
	// a parallel window, in program order; the merge replays them to assign
	// real sequence numbers.
	emits []*Event
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and unarmed. Handles are generation-checked: once the event fires
// (or is cancelled) its node may be recycled for an unrelated event, and
// the stale handle turns into a no-op instead of cancelling a stranger.
type Timer struct {
	ev  *Event
	gen uint64
}

// Armed reports whether the event is still scheduled to fire.
func (tm Timer) Armed() bool {
	ev := tm.ev
	if ev == nil || ev.gen != tm.gen {
		return false
	}
	switch ev.state {
	case evPending, evWindow:
		return true
	case evEmitted:
		return !ev.cancelled
	}
	return false
}

// Cancel prevents the event from firing. Cancelling an already-fired (or
// already-cancelled) event is a no-op. Unlike a lazy cancellation mark, the
// node is removed from its heap immediately, so re-arm loops (watchdogs,
// coalescing timers) cannot grow the queue without bound.
func (tm Timer) Cancel() {
	ev := tm.ev
	if ev == nil || ev.gen != tm.gen {
		return
	}
	ev.eng.cancelEvent(ev)
}

// At returns the virtual time the event is scheduled for (0 if the handle
// is stale or zero).
func (tm Timer) At() time.Duration {
	if tm.ev == nil || tm.ev.gen != tm.gen {
		return 0
	}
	return tm.ev.at
}

// before reports whether a orders before b: (at, seq) is a strict total
// order over live events, so every correct heap pops the same sequence.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It backs
// every per-lane calendar shard, the in-window lane heaps, and the merge's
// replay heap. Each node's index tracks its slot; the sifts move a hole
// instead of swapping, so a level costs one store and one index update.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the minimum event (the heap must be non-empty).
func (h *eventHeap) pop() *Event {
	return h.remove(0)
}

// remove deletes and returns the event at slot i.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.fix(i, last)
	}
	ev.index = -1
	return ev
}

// fix places ev at slot i and restores the heap order around it.
func (h eventHeap) fix(i int, ev *Event) {
	if i > 0 && before(ev, h[(i-1)/2]) {
		h.up(i, ev)
	} else {
		h.down(i, ev)
	}
}

// up sifts the hole at slot i toward the root until ev fits, then fills it.
func (h eventHeap) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down sifts the hole at slot i toward the leaves until ev fits, then
// fills it.
func (h eventHeap) down(i int, ev *Event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
}
