package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// calModel drives one randomized schedule/cancel/pop workload against a
// sharded calendar and a reference flat list, checking that every pop agrees
// with the reference's (at, seq) minimum. Used by both the quick property
// test and the shard-count invariance test.
type calModel struct {
	t    *testing.T
	cal  *calendar
	ref  []*Event // mirror of everything pending in cal
	seq  uint64
	pops []*Event
}

func newCalModel(t *testing.T, shards int) *calModel {
	m := &calModel{t: t, cal: newCalendar()}
	for i := 1; i < shards; i++ {
		m.cal.addShard()
	}
	return m
}

// refMin returns the index of the reference's (at, seq) minimum.
func (m *calModel) refMin() int {
	best := -1
	for i, ev := range m.ref {
		if best < 0 || ev.at < m.ref[best].at ||
			(ev.at == m.ref[best].at && ev.seq < m.ref[best].seq) {
			best = i
		}
	}
	return best
}

func (m *calModel) refDelete(i int) {
	m.ref[i] = m.ref[len(m.ref)-1]
	m.ref = m.ref[:len(m.ref)-1]
}

// step applies one encoded operation. The word picks the op, the lane, and
// the timestamp; timestamps are drawn from a small space so equal-(at) ties
// are common.
func (m *calModel) step(w uint32) bool {
	op := w & 3
	lane := int32((w >> 2) % uint32(len(m.cal.shards)))
	at := time.Duration((w>>8)%64) * time.Microsecond
	switch op {
	case 0, 1: // schedule
		m.seq++
		ev := &Event{at: at, seq: m.seq, lane: lane, state: evPending}
		m.cal.push(ev)
		m.ref = append(m.ref, ev)
	case 2: // cancel a random pending event
		if len(m.ref) == 0 {
			return true
		}
		i := int((w >> 8) % uint32(len(m.ref)))
		ev := m.ref[i]
		if w>>31 == 1 {
			// The parallel-window path: deferred removal with a frozen
			// top index, then the wholesale rebuild the merge performs.
			m.cal.removeDeferred(ev)
			m.cal.rebuildTop()
		} else {
			m.cal.remove(ev)
		}
		m.refDelete(i)
	case 3: // pop the global minimum
		want := m.refMin()
		got := m.cal.pop()
		if want < 0 {
			if got != nil {
				m.t.Errorf("pop from empty calendar returned (at=%v seq=%d)", got.at, got.seq)
				return false
			}
			return true
		}
		if got != m.ref[want] {
			m.t.Errorf("pop = (at=%v seq=%d), reference min = (at=%v seq=%d)",
				got.at, got.seq, m.ref[want].at, m.ref[want].seq)
			return false
		}
		m.refDelete(want)
		m.pops = append(m.pops, got)
	}
	return m.checkSlots()
}

// checkSlots asserts the heaps' back-pointers: every pending event's index
// is its slot in its shard, every non-empty shard's pos is its slot in the
// top index, and every empty shard is out of the top index (pos -1).
func (m *calModel) checkSlots() bool {
	for _, s := range m.cal.shards {
		for i, ev := range s.h {
			if ev.index != i || ev.lane != int32(s.id) {
				m.t.Errorf("shard %d slot %d holds an event with index %d, lane %d", s.id, i, ev.index, ev.lane)
				return false
			}
		}
		if len(s.h) == 0 && s.pos != -1 {
			m.t.Errorf("empty shard %d has pos %d, want -1", s.id, s.pos)
			return false
		}
		if len(s.h) > 0 && (s.pos < 0 || s.pos >= len(m.cal.top) || m.cal.top[s.pos] != s) {
			m.t.Errorf("non-empty shard %d is not at its pos %d in the top index", s.id, s.pos)
			return false
		}
	}
	for i, s := range m.cal.top {
		if s.pos != i {
			m.t.Errorf("top slot %d holds shard %d with pos %d", i, s.id, s.pos)
			return false
		}
	}
	return true
}

// drain pops everything left, still checking against the reference.
func (m *calModel) drain() bool {
	for len(m.ref) > 0 {
		if !m.step(3) {
			return false
		}
	}
	if got := m.cal.pop(); got != nil {
		m.t.Errorf("calendar still had (at=%v seq=%d) after reference drained", got.at, got.seq)
		return false
	}
	return true
}

// TestCalendarDifferentialQuick is the differential property test of the
// sharded calendar: any randomized schedule/cancel/pop workload, spread over
// any shard count, must pop in exactly the reference single-list (at, seq)
// order — including through the deferred-removal + rebuild path that
// parallel windows use.
func TestCalendarDifferentialQuick(t *testing.T) {
	prop := func(ops []uint32, shardBits uint8) bool {
		m := newCalModel(t, 1+int(shardBits%8))
		for _, w := range ops {
			if !m.step(w) {
				return false
			}
		}
		return m.drain()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarShardCountInvariance replays one fixed workload under every
// shard count and requires the identical pop sequence: sharding is a data
// structure choice, never an ordering choice.
func TestCalendarShardCountInvariance(t *testing.T) {
	// A seeded splitmix64 stream keeps the workload identical across runs.
	words := make([]uint32, 4096)
	x := uint64(0xae011a)
	for i := range words {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		words[i] = uint32(z ^ (z >> 31))
	}
	var base []uint64 // (at, seq) of every pop under shards=1
	for _, shards := range []int{1, 2, 3, 4, 8} {
		m := newCalModel(t, shards)
		for _, w := range words {
			if !m.step(w) {
				t.Fatalf("shards=%d: differential failure", shards)
			}
		}
		if !m.drain() {
			t.Fatalf("shards=%d: drain failure", shards)
		}
		order := make([]uint64, len(m.pops))
		for i, ev := range m.pops {
			order[i] = uint64(ev.at)<<16 | ev.seq
		}
		if base == nil {
			base = order
			continue
		}
		if len(order) != len(base) {
			t.Fatalf("shards=%d popped %d events, shards=1 popped %d", shards, len(order), len(base))
		}
		for i := range order {
			if order[i] != base[i] {
				t.Fatalf("shards=%d pop %d = %#x, shards=1 = %#x", shards, i, order[i], base[i])
			}
		}
	}
}

// TestCancelBoundsQueueLength is the regression test for the
// cancel-leaves-garbage bug: Timer.Cancel must remove the node from its
// heap (and return it to the pool), so a re-arm loop — the watchdog
// pattern — keeps the queue at O(1), not O(re-arms).
func TestCancelBoundsQueueLength(t *testing.T) {
	e := NewEngine(0, nil)
	const rearms = 10000
	fired := 0
	var tm Timer
	for i := 1; i <= rearms; i++ {
		tm.Cancel() // no-op on the zero Timer, removal afterwards
		tm = e.Schedule(time.Duration(i)*time.Microsecond, func() { fired++ })
	}
	if n := e.cal.len(); n > 1 {
		t.Fatalf("queue holds %d events after %d re-arms, want 1 (cancel must remove)", n, rearms)
	}
	st := e.Stats()
	if st.PoolHits < rearms-10 {
		t.Fatalf("pool hits = %d after %d re-arms, want ~all (cancel must recycle)", st.PoolHits, rearms)
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("%d timers fired, want exactly the live one", fired)
	}
}

// BenchmarkCalendarSchedulePop measures one pop plus one schedule on a
// calendar holding a steady 1k events over 4 shards: the engine's per-event
// queue cost. The popped node is rescheduled a pseudo-random delay later on
// the next shard, so heads keep moving between shards.
func BenchmarkCalendarSchedulePop(b *testing.B) {
	const events, shards = 1024, 4
	cal := newCalendar()
	for i := 1; i < shards; i++ {
		cal.addShard()
	}
	var seq uint64
	x := uint64(0xca1e)
	delay := func() time.Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return time.Duration(x>>54) * time.Nanosecond // 0..1023ns
	}
	for i := 0; i < events; i++ {
		seq++
		cal.push(&Event{at: delay(), seq: seq, lane: int32(i % shards), state: evPending})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cal.pop()
		seq++
		ev.at += delay()
		ev.seq = seq
		ev.lane = (ev.lane + 1) % shards
		cal.push(ev)
	}
}
