package nvme_test

import (
	"errors"
	"testing"

	"aeolia/internal/nvme"
)

// TestSubmitFullSQ: the submission queue holds depth-1 in-flight commands;
// the next Submit is rejected with ErrSQFull, and draining completions frees
// the slots again.
func TestSubmitFullSQ(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(4)
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: uint64(i), NLB: 1, Data: buf}, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if qp.Inflight() != 3 {
		t.Fatalf("Inflight = %d, want 3", qp.Inflight())
	}
	_, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 9, NLB: 1, Data: buf}, nil)
	if !errors.Is(err, nvme.ErrSQFull) {
		t.Fatalf("submit into full SQ: %v, want ErrSQFull", err)
	}
	// Complete the backlog; the queue accepts submissions again.
	e.Run(0)
	qp.Poll(nil, 0)
	if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 9, NLB: 1, Data: buf}, nil); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestCQWraparoundPhaseFlip: CQEs posted before the completion-queue tail
// wraps carry the initial phase bit; entries after the wrap carry the
// flipped phase — the mechanism a host uses to detect new entries without a
// doorbell read.
func TestCQWraparoundPhaseFlip(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(4)
	buf := make([]byte, 512)
	submitN := func(n int) []nvme.CompletionEntry {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: uint64(i), NLB: 1, Data: buf}, nil); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(0)
		ces := qp.Poll(nil, 0)
		if len(ces) != n {
			t.Fatalf("polled %d CQEs, want %d", len(ces), n)
		}
		return ces
	}
	// First lap: CQ slots 0..2, initial phase.
	for i, ce := range submitN(3) {
		if !ce.Phase {
			t.Errorf("pre-wrap CQE %d has phase=false, want true", i)
		}
	}
	// Second lap: slot 3 still carries the old phase, then the tail wraps
	// to 0 and the phase flips for slots 0..1.
	ces := submitN(3)
	if !ces[0].Phase {
		t.Error("last pre-wrap slot lost the old phase bit")
	}
	for i, ce := range ces[1:] {
		if ce.Phase {
			t.Errorf("post-wrap CQE %d has phase=true, want flipped", i)
		}
	}
}

// TestSQDoorbellOutOfRange: out-of-range tail values are rejected with
// ErrDoorbell and dispatch nothing.
func TestSQDoorbellOutOfRange(t *testing.T) {
	_, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	for _, tail := range []int{-1, 8, 100} {
		if err := qp.WriteSQDoorbell(tail); !errors.Is(err, nvme.ErrDoorbell) {
			t.Errorf("WriteSQDoorbell(%d) = %v, want ErrDoorbell", tail, err)
		}
	}
	if qp.Submitted != 0 {
		t.Errorf("rejected doorbells dispatched %d commands", qp.Submitted)
	}
	// An idempotent rewrite of the current tail dispatches nothing.
	if err := qp.WriteSQDoorbell(0); err != nil {
		t.Fatalf("no-op doorbell: %v", err)
	}
	if qp.Submitted != 0 {
		t.Errorf("no-op doorbell dispatched %d commands", qp.Submitted)
	}
}

// TestCQDoorbellOutOfRange: the CQ head doorbell rejects out-of-range values
// and any head that advances past the tail, mutating nothing on rejection.
func TestCQDoorbellOutOfRange(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	buf := make([]byte, 512)
	if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 1, NLB: 1, Data: buf}, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if !qp.HasCompletions() {
		t.Fatal("no CQE posted")
	}
	for _, head := range []int{-1, 8, 1000} {
		if err := qp.WriteCQDoorbell(head); !errors.Is(err, nvme.ErrDoorbell) {
			t.Errorf("WriteCQDoorbell(%d) = %v, want ErrDoorbell", head, err)
		}
	}
	// One slot is occupied (head=0, tail=1): releasing two is inconsistent.
	if err := qp.WriteCQDoorbell(2); !errors.Is(err, nvme.ErrDoorbell) {
		t.Errorf("CQ head past tail = %v, want ErrDoorbell", err)
	}
	// The rejected writes must not have consumed the entry.
	if !qp.HasCompletions() {
		t.Fatal("rejected doorbell writes consumed the CQE")
	}
	if err := qp.WriteCQDoorbell(1); err != nil {
		t.Fatalf("valid CQ doorbell: %v", err)
	}
	if qp.HasCompletions() {
		t.Error("valid doorbell did not release the slot")
	}
}
