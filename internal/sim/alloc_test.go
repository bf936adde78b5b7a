package sim_test

import (
	"testing"
	"time"

	"aeolia/internal/sim"
)

// Allocation guards for the engine hot path: a simulated context switch,
// an interrupt and a polled completion must allocate nothing per cycle once
// the engine is warm. A per-event closure, a boxed debug argument or a
// channel handoff creeping back into sim shows up here first.

// allocsPerStep warms e up, then returns the steady-state allocations of
// advancing it by step of virtual time, and how many cycles (*cycles)
// those steps completed.
func allocsPerStep(t *testing.T, e *sim.Engine, step time.Duration, cycles *int) float64 {
	t.Helper()
	until := e.Run(100 * step)
	before := *cycles
	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		until += step
		e.Run(until)
	})
	if done := *cycles - before; done < runs {
		t.Fatalf("only %d cycles in %d steps; the loop under test is not cycling", done, runs)
	}
	return allocs
}

func TestAllocsSleepExecCycle(t *testing.T) {
	e := newEngine(t, 1)
	n := 0
	e.Spawn("sleeper", e.Core(0), func(env *sim.Env) {
		for ; ; n++ {
			env.Exec(2 * time.Microsecond)
			env.Sleep(3 * time.Microsecond)
		}
	})
	if a := allocsPerStep(t, e, 10*time.Microsecond, &n); a > 0 {
		t.Fatalf("block→wake→dispatch cycle allocates %v per step, want 0", a)
	}
}

func TestAllocsIRQCycle(t *testing.T) {
	e := newEngine(t, 1)
	core := e.Core(0)
	n := 0
	core.SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
		ctx.Charge(time.Microsecond)
		n++
	})
	// A long Exec on the core makes every IRQ suspend and resume a slice.
	e.Spawn("worker", core, func(env *sim.Env) {
		for {
			env.Exec(time.Second)
		}
	})
	var raise func()
	raise = func() {
		core.RaiseIRQ(3)
		core.Schedule(4*time.Microsecond, raise)
	}
	core.Schedule(4*time.Microsecond, raise)
	if a := allocsPerStep(t, e, 10*time.Microsecond, &n); a > 0 {
		t.Fatalf("raise→handler→frameEnd cycle allocates %v per step, want 0", a)
	}
}

func TestAllocsSpinCycle(t *testing.T) {
	e := newEngine(t, 1)
	comps := make([]sim.Completion, 1<<14)
	n := 0
	fire := func() { comps[n].Fire() }
	e.Spawn("poller", e.Core(0), func(env *sim.Env) {
		for ; n < len(comps); n++ {
			env.Exec(time.Microsecond)
			env.Schedule(2*time.Microsecond, fire)
			env.SpinWait(&comps[n])
		}
	})
	if a := allocsPerStep(t, e, 10*time.Microsecond, &n); a > 0 {
		t.Fatalf("spin-on-completion cycle allocates %v per step, want 0", a)
	}
}
