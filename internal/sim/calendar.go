package sim

// A shard is one lane's calendar: a binary heap of that lane's pending
// events. The global order is recovered through the top-level index, which
// tracks the minimum head across all non-empty shards.
type shard struct {
	id    int
	h     eventHeap
	pos   int  // index in calendar.top, -1 when empty/absent
	dirty bool // head may have changed while the top index was frozen
}

// calendar is the sharded event queue: per-lane heaps plus a heap-of-shards
// ("top") keyed by each shard's head event. Schedule, cancel, and pop cost
// O(log k) in the owning shard's population plus O(log s) in the shard
// count, instead of O(log n) in the global event count — and, more
// importantly, the per-lane heaps are what parallel windows detach from.
type calendar struct {
	shards []*shard
	top    topHeap
}

func newCalendar() *calendar {
	c := &calendar{}
	c.addShard() // shard 0: the engine lane
	return c
}

// addShard appends a new empty shard and returns its id.
func (c *calendar) addShard() int {
	s := &shard{id: len(c.shards), pos: -1}
	c.shards = append(c.shards, s)
	return s.id
}

func (c *calendar) len() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.h)
	}
	return n
}

// push inserts ev into its lane's shard.
func (c *calendar) push(ev *Event) {
	s := c.shards[ev.lane]
	s.h.push(ev)
	if ev.index == 0 { // new head: the shard's key changed
		c.fixTop(s)
	}
}

// peek returns the globally-minimum pending event without removing it.
func (c *calendar) peek() *Event {
	if len(c.top) == 0 {
		return nil
	}
	return c.top[0].h[0]
}

// pop removes and returns the globally-minimum pending event.
func (c *calendar) pop() *Event {
	if len(c.top) == 0 {
		return nil
	}
	s := c.top[0]
	ev := s.h.pop()
	c.fixTop(s)
	return ev
}

// remove deletes ev from its shard (it must be pending there).
func (c *calendar) remove(ev *Event) {
	s := c.shards[ev.lane]
	wasHead := ev.index == 0
	s.h.remove(ev.index)
	// An interior removal cannot change the shard's head: the root of the
	// heap is untouched by remove unless the root itself was removed.
	if wasHead || len(s.h) == 0 {
		c.fixTop(s)
	}
}

// removeDeferred deletes ev from its shard without repairing the top index
// — used from lane goroutines during a parallel window, when the top index
// is frozen (detached heads make it stale anyway). The shard is marked
// dirty; the merge rebuilds the top index wholesale.
func (c *calendar) removeDeferred(ev *Event) {
	s := c.shards[ev.lane]
	s.h.remove(ev.index)
	s.dirty = true
}

// fixTop repairs the top index after s's head changed (single violation).
func (c *calendar) fixTop(s *shard) {
	switch {
	case len(s.h) == 0 && s.pos >= 0:
		c.top.remove(s.pos)
	case len(s.h) > 0 && s.pos < 0:
		c.top.push(s)
	case len(s.h) > 0:
		c.top.fix(s.pos, s)
	}
	s.dirty = false
}

// rebuildTop reconstructs the top index from scratch. Required after a
// parallel window: multiple shards may have changed heads, and fix is only
// sound for one violation at a time.
func (c *calendar) rebuildTop() {
	c.top = c.top[:0]
	for _, s := range c.shards {
		s.dirty = false
		s.pos = -1
		if len(s.h) > 0 {
			c.top = append(c.top, s)
		}
	}
	c.top.init()
}

// topHeap orders non-empty shards by their head event's (at, seq), with
// each shard's pos tracking its slot. Same hole sifts as eventHeap.
type topHeap []*shard

func (t *topHeap) push(s *shard) {
	*t = append(*t, s)
	t.up(len(*t)-1, s)
}

// remove deletes the shard at slot i.
func (t *topHeap) remove(i int) {
	old := *t
	n := len(old) - 1
	s, last := old[i], old[n]
	old[n] = nil
	*t = old[:n]
	if i < n {
		t.fix(i, last)
	}
	s.pos = -1
}

// fix places s at slot i and restores the heap order around it.
func (t topHeap) fix(i int, s *shard) {
	if i > 0 && before(s.h[0], t[(i-1)/2].h[0]) {
		t.up(i, s)
	} else {
		t.down(i, s)
	}
}

// init heapifies t in O(n) and assigns every pos.
func (t topHeap) init() {
	for i, s := range t {
		s.pos = i
	}
	for i := len(t)/2 - 1; i >= 0; i-- {
		t.down(i, t[i])
	}
}

func (t topHeap) up(i int, s *shard) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(s.h[0], t[p].h[0]) {
			break
		}
		t[i] = t[p]
		t[i].pos = i
		i = p
	}
	t[i] = s
	s.pos = i
}

func (t topHeap) down(i int, s *shard) {
	n := len(t)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(t[r].h[0], t[c].h[0]) {
			c = r
		}
		if !before(t[c].h[0], s.h[0]) {
			break
		}
		t[i] = t[c]
		t[i].pos = i
		i = c
	}
	t[i] = s
	s.pos = i
}
