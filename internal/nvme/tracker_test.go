package nvme_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// faultsByLBA injects a fixed fault into every command starting at a given
// LBA.
type faultsByLBA map[uint64]nvme.CommandFault

func (f faultsByLBA) InjectCommand(e *nvme.SubmissionEntry) nvme.CommandFault {
	return f[e.SLBA]
}

// TestTrackerLifecycle drives one command down every completion path a
// tracker handles — validate failure, injected error, torn write, latency
// spike, read, write and flush — and checks that each CID completes exactly
// once with its expected status, that each caller-owned completion fires,
// that only the torn prefix reaches the write cache, and that every tracker
// returns to the free stack.
func TestTrackerLifecycle(t *testing.T) {
	const bs = 512
	e, d := newDev(nvme.Config{BlockSize: bs, NumBlocks: 64})
	const depth = 8
	qp, _ := d.CreateQueuePair(depth)
	const spike = 50 * time.Microsecond
	d.SetInjector(faultsByLBA{
		10: {Status: nvme.StatusInternalError},
		20: {Status: nvme.StatusWriteFault, TornBlocks: 2},
		30: {ExtraLatency: spike},
	})
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n*bs) }
	torn := fill(4, 0xcd)
	cmds := []struct {
		name string
		e    nvme.SubmissionEntry
		want nvme.Status
	}{
		{"lba-range", nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 62, NLB: 4, Data: fill(4, 0)}, nvme.StatusLBARange},
		{"injected-error", nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 10, NLB: 1, Data: fill(1, 0)}, nvme.StatusInternalError},
		{"torn-write", nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 20, NLB: 4, Data: torn}, nvme.StatusWriteFault},
		{"latency-spike", nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 30, NLB: 1, Data: fill(1, 0)}, nvme.StatusSuccess},
		{"write", nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 40, NLB: 1, Data: fill(1, 0xab)}, nvme.StatusSuccess},
	}
	want := make(map[uint16]nvme.Status)
	done := make(map[uint16]*sim.Completion)
	submit := func(name string, se nvme.SubmissionEntry, st nvme.Status) uint16 {
		t.Helper()
		c := sim.NewCompletion()
		cid, err := qp.Submit(se, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, dup := want[cid]; dup {
			t.Fatalf("%s: CID %d reused while in flight", name, cid)
		}
		want[cid], done[cid] = st, c
		return cid
	}
	var spikeCID uint16
	for _, c := range cmds {
		cid := submit(c.name, c.e, c.want)
		if c.name == "latency-spike" {
			spikeCID = cid
		}
	}
	if got := qp.FreeTrackers() + qp.Inflight(); got != depth {
		t.Fatalf("free trackers + in flight = %d, want %d", got, depth)
	}
	e.Run(0)

	// Only the torn prefix reached the write cache, next to the clean write.
	if got := d.CachedBlocks(); got != 3 {
		t.Fatalf("cached blocks = %d, want 3 (2 torn + 1 written)", got)
	}
	blk := make([]byte, bs)
	for i, wantByte := range []byte{0xcd, 0xcd, 0, 0} {
		d.PeekBlock(20+uint64(i), blk)
		if blk[0] != wantByte {
			t.Errorf("torn write block %d holds %#x, want %#x", i, blk[0], wantByte)
		}
	}
	// A flush completes through the same tracker table and destages.
	submit("flush", nvme.SubmissionEntry{Opcode: nvme.OpFlush}, nvme.StatusSuccess)
	e.Run(0)
	if got := d.CachedBlocks(); got != 0 {
		t.Fatalf("cached blocks after flush = %d, want 0", got)
	}

	seen := make(map[uint16]int)
	for _, ce := range qp.Poll(nil, 0) {
		seen[ce.CID]++
		if ce.Status != want[ce.CID] {
			t.Errorf("CID %d: status %v, want %v", ce.CID, ce.Status, want[ce.CID])
		}
	}
	for cid := range want {
		if seen[cid] != 1 {
			t.Errorf("CID %d completed %d times, want 1", cid, seen[cid])
		}
		if !done[cid].Done() {
			t.Errorf("CID %d: caller-owned completion never fired", cid)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%d CIDs completed, %d submitted", len(seen), len(want))
	}
	// The spiked read finished after its service time plus the spike.
	if at, min := done[spikeCID].At(), spike+nvme.P5800X().ServiceTime(nvme.OpRead, bs)/2; at < min {
		t.Errorf("latency-spike command completed at %v, want >= %v", at, min)
	}
	if qp.FreeTrackers() != depth || qp.Inflight() != 0 {
		t.Errorf("after drain: %d free trackers, %d in flight; want %d, 0", qp.FreeTrackers(), qp.Inflight(), depth)
	}
}

// TestSQDoorbellOverCommit: a host-written SQ tail that would put more
// commands in flight than there are free trackers is an invalid doorbell
// write: ErrDoorbell, and the rings, counters and trackers stay untouched.
func TestSQDoorbellOverCommit(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	const depth = 4
	qp, _ := d.CreateQueuePair(depth)
	buf := make([]byte, 512)
	for i := 0; i < depth-1; i++ {
		if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i), NLB: 1, Data: buf}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if qp.FreeTrackers() != 1 {
		t.Fatalf("free trackers = %d with %d in flight, want 1", qp.FreeTrackers(), depth-1)
	}
	head, tail, doorbells, submitted := qp.SQHead(), qp.SQTail(), qp.SQDoorbells, qp.Submitted
	// Advancing the tail by two dispatches two commands; one tracker is free.
	if err := qp.WriteSQDoorbell((tail + 2) % depth); !errors.Is(err, nvme.ErrDoorbell) {
		t.Fatalf("over-committing doorbell = %v, want ErrDoorbell", err)
	}
	if qp.SQHead() != head || qp.SQTail() != tail || qp.SQDoorbells != doorbells ||
		qp.Submitted != submitted || qp.FreeTrackers() != 1 {
		t.Fatalf("rejected doorbell moved state: head %d→%d tail %d→%d doorbells %d→%d submitted %d→%d free %d",
			head, qp.SQHead(), tail, qp.SQTail(), doorbells, qp.SQDoorbells, submitted, qp.Submitted, qp.FreeTrackers())
	}
	// The queue still works: the in-flight commands drain, trackers return.
	e.Run(0)
	if got := len(qp.Poll(nil, 0)); got != depth-1 {
		t.Fatalf("polled %d CQEs, want %d", got, depth-1)
	}
	if qp.FreeTrackers() != depth {
		t.Fatalf("free trackers = %d after drain, want %d", qp.FreeTrackers(), depth)
	}
	if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 9, NLB: 1, Data: buf}, nil); err != nil {
		t.Fatalf("submit after rejected doorbell: %v", err)
	}
}

// TestAllocsSubmitPollRoundTrip guards the command lifecycle: once the
// queue pair's trackers are bound and the engine is warm, a read's
// Submit→Run→Poll round trip with a caller-owned completion and a reused
// poll buffer allocates nothing.
func TestAllocsSubmitPollRoundTrip(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	qp, _ := d.CreateQueuePair(16)
	data := make([]byte, 4096)
	var done sim.Completion
	var cqes [4]nvme.CompletionEntry
	lba := uint64(0)
	roundTrip := func() {
		done.Rearm()
		if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: lba % 1024, NLB: 1, Data: data}, &done); err != nil {
			t.Fatal(err)
		}
		lba++
		e.Run(0)
		if got := qp.Poll(cqes[:0], 0); len(got) != 1 || !done.Done() {
			t.Fatalf("round trip %d: polled %d CQEs, done=%v", lba, len(got), done.Done())
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if a := testing.AllocsPerRun(500, roundTrip); a != 0 {
		t.Fatalf("Submit→Run→Poll round trip allocates %v objects, want 0", a)
	}
}
