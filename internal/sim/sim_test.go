package sim_test

import (
	"testing"
	"time"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

func newEngine(t *testing.T, cores int) *sim.Engine {
	t.Helper()
	e := sim.NewEngine(cores, sched.NewEEVDF())
	t.Cleanup(e.Shutdown)
	return e
}

// startup is the cost of the first dispatch from idle: every spawned task
// pays idle-exit + context-switch before its body runs.
const startup = timing.IdleExit + timing.ContextSwitch

func TestExecConsumesVirtualTime(t *testing.T) {
	e := newEngine(t, 1)
	var done time.Duration
	e.Spawn("worker", e.Core(0), func(env *sim.Env) {
		env.Exec(10 * time.Microsecond)
		env.Exec(5 * time.Microsecond)
		done = env.Now()
	})
	e.Run(0)
	if done != 15*time.Microsecond+startup {
		t.Fatalf("done at %v, want 15µs+startup", done)
	}
}

func TestScheduleOrderingDeterministic(t *testing.T) {
	e := sim.NewEngine(0, nil)
	var order []int
	e.Schedule(2*time.Microsecond, func() { order = append(order, 2) })
	e.Schedule(time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(time.Microsecond, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("order = %v, want [1 3 2]", order)
	}
}

func TestEventCancel(t *testing.T) {
	e := sim.NewEngine(0, nil)
	fired := false
	ev := e.Schedule(time.Microsecond, func() { fired = true })
	ev.Cancel()
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunHorizonStopsClock(t *testing.T) {
	e := sim.NewEngine(0, nil)
	e.Schedule(10*time.Millisecond, func() {})
	end := e.Run(time.Millisecond)
	if end != time.Millisecond {
		t.Fatalf("end = %v, want 1ms", end)
	}
}

func TestBlockAndWakePaysSchedulingCosts(t *testing.T) {
	e := newEngine(t, 1)
	var resumed time.Duration
	tk := e.Spawn("sleeper", e.Core(0), func(env *sim.Env) {
		env.Exec(time.Microsecond)
		env.Block()
		resumed = env.Now()
	})
	// Wake from a bare event at t=50µs: the task must additionally pay
	// idle-exit + context-switch before running.
	e.Schedule(50*time.Microsecond, func() { e.Wake(tk) })
	e.Run(0)
	want := 50*time.Microsecond + timing.IdleExit + timing.ContextSwitch
	if resumed != want {
		t.Fatalf("resumed at %v, want %v", resumed, want)
	}
}

func TestSleepWakesAfterDuration(t *testing.T) {
	e := newEngine(t, 1)
	var resumed time.Duration
	e.Spawn("sleeper", e.Core(0), func(env *sim.Env) {
		env.Sleep(100 * time.Microsecond)
		resumed = env.Now()
	})
	e.Run(0)
	want := startup + 100*time.Microsecond + timing.IdleExit + timing.ContextSwitch
	if resumed != want {
		t.Fatalf("resumed at %v, want %v", resumed, want)
	}
}

func TestSpinWaitResumesInstantlyOnFire(t *testing.T) {
	e := newEngine(t, 1)
	comp := sim.NewCompletion()
	var resumed time.Duration
	e.Spawn("poller", e.Core(0), func(env *sim.Env) {
		env.SpinWait(comp)
		resumed = env.Now()
	})
	e.Schedule(30*time.Microsecond, func() { comp.Fire() })
	e.Run(0)
	if resumed != 30*time.Microsecond {
		t.Fatalf("resumed at %v, want 30µs (no scheduler cost for polling)", resumed)
	}
}

func TestSpinWaitConsumesCPU(t *testing.T) {
	e := newEngine(t, 1)
	comp := sim.NewCompletion()
	tk := e.Spawn("poller", e.Core(0), func(env *sim.Env) {
		env.SpinWait(comp)
	})
	e.Schedule(30*time.Microsecond, func() { comp.Fire() })
	e.Run(0)
	if tk.CPUTime != 30*time.Microsecond-startup {
		t.Fatalf("CPUTime = %v, want 30µs-startup", tk.CPUTime)
	}
}

func TestIRQChargesCostAndResumesTask(t *testing.T) {
	e := newEngine(t, 1)
	core := e.Core(0)
	var handled time.Duration
	core.SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
		ctx.Charge(timing.KernelInterrupt)
		handled = ctx.Now()
	})
	var finished time.Duration
	e.Spawn("worker", e.Core(0), func(env *sim.Env) {
		env.Exec(100 * time.Microsecond)
		finished = env.Now()
	})
	e.Schedule(40*time.Microsecond, func() { core.RaiseIRQ(7) })
	e.Run(0)
	if handled != 40*time.Microsecond {
		t.Fatalf("IRQ handled at %v, want 40µs", handled)
	}
	want := startup + 100*time.Microsecond + timing.KernelInterrupt
	if finished != want {
		t.Fatalf("task finished at %v, want %v (exec stretched by ISR)", finished, want)
	}
}

func TestIRQWhileIdle(t *testing.T) {
	e := newEngine(t, 1)
	core := e.Core(0)
	fired := false
	core.SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
		fired = true
		if vec != 13 {
			t.Errorf("vec = %d, want 13", vec)
		}
	})
	e.Schedule(time.Millisecond, func() { core.RaiseIRQ(13) })
	e.Run(0)
	if !fired {
		t.Fatal("IRQ not delivered to idle core")
	}
}

func TestTwoTasksShareCoreFairly(t *testing.T) {
	e := newEngine(t, 1)
	var doneA, doneB time.Duration
	e.Spawn("A", e.Core(0), func(env *sim.Env) {
		for i := 0; i < 10; i++ {
			env.Exec(10 * time.Millisecond)
		}
		doneA = env.Now()
	})
	e.Spawn("B", e.Core(0), func(env *sim.Env) {
		for i := 0; i < 10; i++ {
			env.Exec(10 * time.Millisecond)
		}
		doneB = env.Now()
	})
	e.Run(0)
	if doneA == 0 || doneB == 0 {
		t.Fatal("tasks did not finish")
	}
	// 200ms of combined work on one core: both should finish close to
	// 200ms — interleaved, not serialized (A then B would put A at 100ms).
	total := 200 * time.Millisecond
	if doneA < 150*time.Millisecond || doneB < 150*time.Millisecond {
		t.Fatalf("doneA=%v doneB=%v: tasks ran serially, want interleaving", doneA, doneB)
	}
	if doneA > total+10*time.Millisecond || doneB > total+10*time.Millisecond {
		t.Fatalf("doneA=%v doneB=%v exceed total+slack", doneA, doneB)
	}
}

func TestWakeupPreemptionByEarlierDeadline(t *testing.T) {
	e := newEngine(t, 1)
	var preempted bool
	hog := e.Spawn("hog", e.Core(0), func(env *sim.Env) {
		env.Exec(time.Second)
	})
	_ = hog
	lc := e.Spawn("lc", e.Core(0), func(env *sim.Env) {
		// Sleep long enough to accumulate lag, then run briefly: on
		// wake EEVDF should preempt the hog whose deadline is far out.
		env.Sleep(500 * time.Millisecond)
		preempted = env.Now() < 600*time.Millisecond
		env.Exec(time.Microsecond)
	})
	_ = lc
	e.Run(0)
	if !preempted {
		t.Fatal("woken task did not run promptly; wakeup preemption broken")
	}
}

func TestYieldSwitchesTasks(t *testing.T) {
	e := newEngine(t, 1)
	var order []string
	e.Spawn("A", e.Core(0), func(env *sim.Env) {
		order = append(order, "A1")
		env.Yield()
		order = append(order, "A2")
	})
	e.Spawn("B", e.Core(0), func(env *sim.Env) {
		order = append(order, "B1")
	})
	e.Run(0)
	if len(order) != 3 || order[0] != "A1" || order[1] != "B1" || order[2] != "A2" {
		t.Fatalf("order = %v, want [A1 B1 A2]", order)
	}
}

func TestResumeHookRunsBeforeBody(t *testing.T) {
	e := newEngine(t, 1)
	var hookAt, bodyAt time.Duration
	tk := e.Spawn("t", e.Core(0), func(env *sim.Env) {
		env.Block()
		bodyAt = env.Now()
	})
	e.Schedule(10*time.Microsecond, func() {
		tk.PushResumeHook(func() time.Duration {
			hookAt = e.Now()
			return timing.UserInterrupt
		})
		e.Wake(tk)
	})
	e.Run(0)
	if hookAt == 0 || bodyAt == 0 {
		t.Fatal("hook or body did not run")
	}
	if bodyAt-hookAt != timing.UserInterrupt {
		t.Fatalf("body resumed %v after hook, want %v", bodyAt-hookAt, timing.UserInterrupt)
	}
}

func TestTaskCPUTimeAccounting(t *testing.T) {
	e := newEngine(t, 1)
	tk := e.Spawn("w", e.Core(0), func(env *sim.Env) {
		env.Exec(7 * time.Microsecond)
		env.Sleep(100 * time.Microsecond)
		env.Exec(3 * time.Microsecond)
	})
	e.Run(0)
	if tk.CPUTime != 10*time.Microsecond {
		t.Fatalf("CPUTime = %v, want 10µs", tk.CPUTime)
	}
	if tk.State() != sim.TaskDone {
		t.Fatalf("state = %v, want done", tk.State())
	}
}

func TestIdleAccounting(t *testing.T) {
	e := newEngine(t, 1)
	e.Spawn("w", e.Core(0), func(env *sim.Env) {
		env.Sleep(time.Millisecond)
	})
	e.Run(0)
	if e.Core(0).IdleTime < 900*time.Microsecond {
		t.Fatalf("IdleTime = %v, want ~1ms", e.Core(0).IdleTime)
	}
}

func TestMultiCoreIndependence(t *testing.T) {
	e := newEngine(t, 2)
	var done0, done1 time.Duration
	e.Spawn("c0", e.Core(0), func(env *sim.Env) {
		env.Exec(10 * time.Millisecond)
		done0 = env.Now()
	})
	e.Spawn("c1", e.Core(1), func(env *sim.Env) {
		env.Exec(10 * time.Millisecond)
		done1 = env.Now()
	})
	e.Run(0)
	if done0 != 10*time.Millisecond+startup || done1 != 10*time.Millisecond+startup {
		t.Fatalf("done0=%v done1=%v, want both 10ms+startup (parallel cores)", done0, done1)
	}
}

func TestUserTryYieldAloneKeepsCore(t *testing.T) {
	snap := sched.Snapshot{NrRunning: 1}
	if sched.UserTryYield(snap, 0) {
		t.Fatal("yielded with no competitor")
	}
}

func TestUserTryYieldWithLaggingCandidate(t *testing.T) {
	snap := sched.Snapshot{
		NrRunning:     2,
		CurrVruntime:  10 * time.Millisecond,
		CurrDeadline:  13 * time.Millisecond,
		CurrExecStart: 0,
		CurrWeight:    sched.NiceZeroWeight,
		CurrSlice:     3 * time.Millisecond,
		CandDeadline:  5 * time.Millisecond,
		HasCandidate:  true,
	}
	if !sched.UserTryYield(snap, 20*time.Millisecond) {
		t.Fatal("did not yield to candidate with much earlier deadline")
	}
}

func TestCompletionFireIsIdempotent(t *testing.T) {
	c := sim.NewCompletion()
	n := 0
	c.OnFire(func() { n++ })
	c.Fire()
	c.Fire()
	if n != 1 {
		t.Fatalf("OnFire ran %d times, want 1", n)
	}
	ran := false
	c.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire after completion should run immediately")
	}
}

// TestCompletionRearm: a rearmed completion is pending again, and the next
// fire wakes whichever waiter — blocked or spinning — waits on it after the
// rearm, exactly like a fresh completion would.
func TestCompletionRearm(t *testing.T) {
	e := newEngine(t, 1)
	comp := sim.NewCompletion()
	var woke []time.Duration
	e.Spawn("waiter", e.Core(0), func(env *sim.Env) {
		env.BlockOn(comp) // fired at 10µs
		woke = append(woke, env.Now())
		comp.Rearm()
		if comp.Done() || comp.At() != 0 {
			t.Errorf("rearmed completion: Done=%v At=%v, want pending", comp.Done(), comp.At())
		}
		env.BlockOn(comp) // fired at 40µs
		woke = append(woke, env.Now())
		comp.Rearm()
		env.SpinWait(comp) // fired at 70µs
		woke = append(woke, env.Now())
	})
	for _, at := range []time.Duration{10, 40, 70} {
		e.ScheduleAt(at*time.Microsecond, func() { comp.FireAt(e.Now()) })
	}
	e.Run(0)
	if len(woke) != 3 {
		t.Fatalf("waiter woke %d times, want 3", len(woke))
	}
	for i, at := range []time.Duration{40, 70} {
		// A blocked task pays the wakeup path; a spinner resumes on the
		// fire itself. Either way, never before the fire.
		if woke[i+1] < at*time.Microsecond {
			t.Fatalf("wake %d at %v, before its fire at %v", i+1, woke[i+1], at*time.Microsecond)
		}
	}
	if woke[2] != 70*time.Microsecond {
		t.Fatalf("spinner resumed at %v, want 70µs (polling has no wakeup cost)", woke[2])
	}
	if comp.At() != 70*time.Microsecond {
		t.Fatalf("At = %v after the last fire, want 70µs", comp.At())
	}
}
