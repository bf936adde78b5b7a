package aeodriver_test

import (
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// TestSubmitBatchShardOrderDeterministic: a batch spread over several
// shards books the shared device's channels and bus in shard order, so
// identical runs complete every segment at identical virtual times.
func TestSubmitBatchShardOrderDeterministic(t *testing.T) {
	cfg := aeodriver.Config{
		Mode:            aeodriver.ModeUserInterrupt,
		QueueDepth:      16,
		QueuesPerThread: 4,
		ShardStride:     1,
	}
	run := func() string {
		var out string
		batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
			iov := make([]aeodriver.IOVec, 8)
			for i := range iov {
				// Mixed sizes make the channel and bus booking
				// order-sensitive.
				cnt := uint32(1 + i%3)
				iov[i] = aeodriver.IOVec{LBA: uint64(i), Cnt: cnt, Buf: make([]byte, 512*int(cnt))}
			}
			reqs, err := drv.SubmitBatch(env, nvme.OpRead, iov, false)
			if err != nil {
				return err
			}
			if err := drv.WaitAll(env, reqs); err != nil {
				return err
			}
			for _, r := range reqs {
				out += fmt.Sprintf("%v ", r.DoneAt)
			}
			return nil
		})
		return out
	}
	first := run()
	for i := 1; i < 30; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d completed the batch at %s, run 0 at %s", i, got, first)
		}
	}
}

// TestAllocsSubmitWait guards the driver's per-command cost: in
// ModeUserInterrupt, once the queue pair and engine are warm, a Submit plus
// its Wait allocates exactly one object, the Request handed to the caller.
func TestAllocsSubmitWait(t *testing.T) {
	m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	t.Cleanup(m.Eng.Shutdown)
	p, err := m.Launch("allocs", aeokern.Partition{Start: 0, Blocks: 1 << 12, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var ioErr error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		if _, ioErr = p.Driver.CreateQP(env); ioErr != nil {
			return
		}
		buf := make([]byte, 4096)
		for ; ; n++ {
			req, err := p.Driver.Submit(env, nvme.OpRead, uint64(n%1024), 1, buf, false)
			if err == nil {
				err = p.Driver.Wait(env, req)
			}
			if err != nil {
				ioErr = err
				return
			}
		}
	})
	// Advance virtual time in steps much shorter than one I/O, so each
	// measured run completes exactly one Submit+Wait.
	var until time.Duration
	step := func() {
		for want := n + 1; n < want && ioErr == nil; {
			until += 100 * time.Nanosecond
			m.Eng.Run(until)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if ioErr != nil {
		t.Fatal(ioErr)
	}
	if allocs != 1 {
		t.Fatalf("Submit+Wait allocates %v objects, want 1 (the Request)", allocs)
	}
}

// failFirst fails the first command at lba with a transient status, then
// lets the retry through.
type failFirst struct {
	lba   uint64
	fired bool
}

func (f *failFirst) InjectCommand(e *nvme.SubmissionEntry) nvme.CommandFault {
	if e.SLBA != f.lba || f.fired {
		return nvme.CommandFault{}
	}
	f.fired = true
	return nvme.CommandFault{Status: nvme.StatusInternalError}
}

// TestTransientRetryTrackers: a command failing with a transient status is
// retried on a fresh CID, in both the polled and the user-interrupt mode
// with the lost-notification watchdog armed. Each CID posts exactly one CQE
// with its expected status, every tracker returns to the free stack, and
// the watchdog recovers nothing.
func TestTransientRetryTrackers(t *testing.T) {
	for _, mode := range []aeodriver.CompletionMode{aeodriver.ModePoll, aeodriver.ModeUserInterrupt} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := aeodriver.Config{Mode: mode, QueueDepth: 8, RecoverTimeout: 20 * time.Microsecond}
			tr := trace.New(1, 0)
			batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
				m.Eng.Tracer = tr
				m.Dev.SetInjector(&failFirst{lba: 7})
				var reqs []*aeodriver.Request
				for lba := uint64(5); lba < 10; lba++ {
					req, err := drv.Submit(env, nvme.OpRead, lba, 1, make([]byte, 512), false)
					if err != nil {
						return err
					}
					reqs = append(reqs, req)
				}
				if err := drv.WaitAll(env, reqs); err != nil {
					return fmt.Errorf("retried request surfaced %w", err)
				}
				// Let any armed watchdog check run out.
				env.Sleep(4 * cfg.RecoverTimeout)
				if th.Retries != 1 {
					t.Errorf("Retries = %d, want 1", th.Retries)
				}
				if th.NotifyRecovered != 0 {
					t.Errorf("watchdog recovered %d completions, want 0", th.NotifyRecovered)
				}
				if th.PendingRequests() != 0 {
					t.Errorf("%d requests still pending", th.PendingRequests())
				}
				qp := th.QueuePairs()[0]
				if qp.FreeTrackers() != qp.Depth() || qp.Inflight() != 0 || qp.HasCompletions() {
					t.Errorf("after drain: %d/%d trackers free, %d in flight, CQEs left %v",
						qp.FreeTrackers(), qp.Depth(), qp.Inflight(), qp.HasCompletions())
				}
				return nil
			})
			posts := make(map[uint32][]nvme.Status)
			for _, ev := range tr.Events() {
				if ev.Type == trace.CQEPost {
					posts[ev.CID] = append(posts[ev.CID], nvme.Status(ev.Aux))
				}
			}
			failed := 0
			for cid, sts := range posts {
				if len(sts) != 1 {
					t.Errorf("CID %d posted %d CQEs, want 1", cid, len(sts))
					continue
				}
				if sts[0] != nvme.StatusSuccess {
					failed++
					if sts[0] != nvme.StatusInternalError {
						t.Errorf("CID %d posted %v, want success or the injected error", cid, sts[0])
					}
				}
			}
			if len(posts) != 6 || failed != 1 {
				t.Errorf("%d CIDs posted (%d failed), want 6 (5 commands + 1 retry, 1 failed)", len(posts), failed)
			}
		})
	}
}
