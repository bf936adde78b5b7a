package sim_test

import (
	"runtime"
	"testing"
	"time"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// settleGoroutines waits briefly for the goroutine count to fall to want
// and returns the last count seen. (A goroutine of an earlier test may
// still be exiting when the baseline is taken, so the count can end
// below it.)
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownUnwindsEveryTaskState stops an engine holding a task in each
// lifecycle state a body can be parked in, and checks that every started
// body unwinds and no runner outlives Shutdown.
func TestShutdownUnwindsEveryTaskState(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.NewEngine(4, sched.NewEEVDF())
	unwound := 0
	body := func(f func(env *sim.Env)) func(env *sim.Env) {
		return func(env *sim.Env) {
			defer func() { unwound++ }()
			f(env)
			t.Error("parked body returned")
		}
	}
	blocked := e.Spawn("blocked", e.Core(0), body(func(env *sim.Env) { env.Block() }))
	execing := e.Spawn("exec", e.Core(1), body(func(env *sim.Env) { env.Exec(time.Second) }))
	spinning := e.Spawn("spin", e.Core(2), body(func(env *sim.Env) { env.SpinWait(sim.NewCompletion()) }))
	// Two CPU hogs share core 3: one of them is preempted at a tick.
	hog := func(env *sim.Env) { env.Exec(time.Second) }
	hogA := e.Spawn("hogA", e.Core(3), body(hog))
	hogB := e.Spawn("hogB", e.Core(3), body(hog))
	e.Run(20 * time.Millisecond)
	fresh := e.Spawn("new", e.Core(0), func(env *sim.Env) { t.Error("never-dispatched body ran") })

	preempted := hogA
	if hogA.State() == sim.TaskRunning {
		preempted = hogB
	}
	for _, c := range []struct {
		task *sim.Task
		want sim.TaskState
		core *sim.Core
	}{
		{blocked, sim.TaskBlocked, nil},
		{execing, sim.TaskRunning, e.Core(1)},
		{spinning, sim.TaskRunning, e.Core(2)},
		{preempted, sim.TaskRunnable, nil},
		{fresh, sim.TaskRunnable, nil},
	} {
		if c.task.State() != c.want || c.task.Core() != c.core {
			t.Fatalf("%v: state %v on %v before Shutdown, want %v on %v",
				c.task, c.task.State(), c.task.Core(), c.want, c.core)
		}
	}
	if preempted.CPUTime == 0 {
		t.Fatalf("%v never ran, so it was not preempted", preempted)
	}

	e.Shutdown()
	if unwound != 5 {
		t.Fatalf("%d parked bodies unwound, want 5", unwound)
	}
	for _, tk := range []*sim.Task{blocked, execing, spinning, hogA, hogB, fresh} {
		if tk.State() != sim.TaskDone {
			t.Errorf("%v: state %v after Shutdown, want done", tk, tk.State())
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown, want the pre-engine %d", n, base)
	}
}

// TestSequentialTasksReuseRunners churns through 10 000 short-lived tasks,
// each spawning its successor, and checks they share a bounded runner set.
func TestSequentialTasksReuseRunners(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.NewEngine(1, sched.NewEEVDF())
	const tasks = 10000
	ran, peak := 0, 0
	var body func(env *sim.Env)
	body = func(env *sim.Env) {
		ran++
		env.Exec(time.Microsecond)
		if n := runtime.NumGoroutine() - base; n > peak {
			peak = n
		}
		if ran < tasks {
			env.Engine().Spawn("churn", env.Task().Affinity(), body)
		}
	}
	e.Spawn("churn", e.Core(0), body)
	e.Run(0)
	if ran != tasks || e.LiveTasks() != 0 {
		t.Fatalf("ran %d tasks with %d live, want %d with 0", ran, e.LiveTasks(), tasks)
	}
	// A task spawns its successor before releasing its own runner, so
	// two runners suffice.
	if peak > 2 {
		t.Fatalf("%d runners live at peak, want at most 2", peak)
	}
	e.Shutdown()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown, want the pre-engine %d", n, base)
	}
}

type taskPanic struct{ at time.Duration }

// TestTaskPanicReachesRunCaller checks that a panic in a task body leaves
// Engine.Run with its original value rather than being swallowed by the
// runner, and that the engine still shuts down cleanly afterwards.
func TestTaskPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.NewEngine(2, sched.NewEEVDF())
	e.Spawn("bystander", e.Core(1), func(env *sim.Env) { env.Block() })
	e.Spawn("panicker", e.Core(0), func(env *sim.Env) {
		env.Exec(time.Microsecond)
		panic(taskPanic{env.Now()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(0)
	}()
	if p, ok := got.(taskPanic); !ok || p.at == 0 {
		t.Fatalf("Run panicked with %#v, want the body's taskPanic", got)
	}
	e.Shutdown()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown, want the pre-engine %d", n, base)
	}
}
