package uintr_test

import (
	"testing"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// stubHook returns a fixed verdict for every notification.
type stubHook struct {
	v     uintr.NotifyVerdict
	calls int
}

func (h *stubHook) OnNotify(u *uintr.UPID, vector uint8) uintr.NotifyVerdict {
	h.calls++
	return h.v
}

func notifyRig(t *testing.T) (*sim.Engine, *uintr.UPID, *int) {
	t.Helper()
	e := sim.NewEngine(1, nil)
	raised := 0
	e.Core(0).SetIRQHandler(func(ctx *sim.IRQCtx, vec int) { raised++ })
	return e, &uintr.UPID{NV: 0xec, DestCPU: 0}, &raised
}

// TestNotifyHookDrop: a Drop verdict loses the notification but not the
// posted PIR bit — the recipient can still recover by polling the UPID.
func TestNotifyHookDrop(t *testing.T) {
	e, u, raised := notifyRig(t)
	h := &stubHook{v: uintr.NotifyVerdict{Drop: true}}
	u.Hook = h
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 {
		t.Fatal("dropped notification still raised the vector")
	}
	if u.PIR != 1<<4 {
		t.Fatal("drop must not clear the posted bit")
	}
	if u.NotifyDropped.Load() != 1 || h.calls != 1 {
		t.Fatalf("NotifyDropped = %d, hook calls = %d, want 1/1", u.NotifyDropped.Load(), h.calls)
	}
}

// TestNotifyHookDelay: a Delay verdict defers the raise into virtual time
// instead of losing it.
func TestNotifyHookDelay(t *testing.T) {
	e, u, raised := notifyRig(t)
	u.Hook = &stubHook{v: uintr.NotifyVerdict{Delay: 5 * time.Microsecond}}
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 {
		t.Fatal("delayed notification raised immediately")
	}
	e.Run(0)
	if *raised != 1 {
		t.Fatalf("raised = %d after engine run, want 1", *raised)
	}
	if u.NotifyDelayed.Load() != 1 {
		t.Fatalf("NotifyDelayed = %d, want 1", u.NotifyDelayed.Load())
	}
}

// TestNotifyHookDuplicates: a Duplicates verdict re-raises the vector; the
// extra notifications are spurious but harmless (PIR is recognized once).
func TestNotifyHookDuplicates(t *testing.T) {
	e, u, raised := notifyRig(t)
	u.Hook = &stubHook{v: uintr.NotifyVerdict{Duplicates: 2}}
	uintr.PostAndNotify(e, u, 4)
	e.Run(0)
	if *raised != 3 {
		t.Fatalf("raised = %d, want 3 (original + 2 duplicates)", *raised)
	}
	if u.NotifyDuped.Load() != 2 {
		t.Fatalf("NotifyDuped = %d, want 2", u.NotifyDuped.Load())
	}
}

// TestNotifyHookSNWins: suppression is checked before the hook — a
// suppressed notification never reaches fault injection.
func TestNotifyHookSNWins(t *testing.T) {
	e, u, raised := notifyRig(t)
	h := &stubHook{v: uintr.NotifyVerdict{}}
	u.Hook = h
	u.SN = true
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 || h.calls != 0 {
		t.Fatalf("SN'd notification reached hook (%d) or core (%d)", h.calls, *raised)
	}
}

// TestPostAndNotifyNoHookAllocs: with no hook installed, a post that raises
// a notification allocates nothing — notify runs once per device
// completion, so a per-call closure would show up on every I/O.
func TestPostAndNotifyNoHookAllocs(t *testing.T) {
	e, u, raised := notifyRig(t)
	e.Core(0).SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
		u.TakePIR()
		*raised++
	})
	step := func() {
		uintr.PostAndNotify(e, u, 3)
		e.Run(0)
	}
	step() // warm the engine's event pool and calendar
	const runs = 200
	before := *raised
	if a := testing.AllocsPerRun(runs, step); a != 0 {
		t.Fatalf("PostAndNotify with no hook allocates %v per call, want 0", a)
	}
	if got := *raised - before; got != runs+1 {
		t.Fatalf("%d notifications raised in %d posts, want one each", got, runs+1)
	}
}
