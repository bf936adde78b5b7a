package sim

import (
	"fmt"
	"time"
)

// TaskState describes where a task is in its lifecycle.
type TaskState int

const (
	// TaskNew tasks have been created but not yet started.
	TaskNew TaskState = iota
	// TaskRunnable tasks are in a runqueue waiting for a core.
	TaskRunnable
	// TaskRunning tasks are current on a core (possibly mid-Exec or
	// spinning).
	TaskRunning
	// TaskBlocked tasks are off the runqueue waiting for a Wake.
	TaskBlocked
	// TaskDone tasks have returned from their body.
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskNew:
		return "new"
	case TaskRunnable:
		return "runnable"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// taskOp is the request a task coroutine hands to the engine when it parks.
type taskOp int

const (
	opNone  taskOp = iota
	opExec         // consume execRem of CPU time
	opBlock        // leave the CPU until woken
	opSpin         // busy-wait on a Completion, consuming CPU time
	opYield        // sched_yield: requeue and reschedule
	opDone         // task body returned
)

// Task is a simulated thread. Its body runs on a pooled runtime coroutine
// (runner.go), and the engine and all task bodies are mutually exclusive:
// exactly one of them executes at any instant, handing control back and
// forth by coroutine switches, so the simulation is deterministic and
// data-race free by construction.
type Task struct {
	ID   int
	Name string

	eng   *Engine
	body  func(*Env)
	state TaskState

	// op and its operands, valid while parked.
	op      taskOp
	execRem time.Duration
	spinOn  *Completion

	// core the task is current on (nil unless TaskRunning).
	core *Core
	// affinity is the core whose runqueue the task belongs to; tasks are
	// pinned for the lifetime of the simulation.
	affinity *Core
	// runner is the pooled coroutine executing the body; it is released
	// back to the engine's pool when the task finishes.
	runner *runner

	// wake (Engine.Wake of this task) and spinFire (spinFired of this
	// task) are bound once so Sleep, BlockOn and SpinWait build no
	// closure per call.
	wake     func()
	spinFire func()

	// onResume runs on the task's virtual CPU right before the task body
	// continues — used to inject a userspace interrupt-handler frame for
	// out-of-schedule user interrupts (§6.1). It may charge time via the
	// returned duration.
	onResume []func() time.Duration

	// Sched is scheduler-private per-task state (e.g. the EEVDF entity).
	Sched any

	// UserData is model-private state (e.g. the uintr per-thread vector).
	UserData any

	// Stats.
	StartedAt  time.Duration
	FinishedAt time.Duration
	CPUTime    time.Duration // virtual CPU consumed by Exec/Spin
	waitStart  time.Duration
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// Core returns the core the task is currently running on, or nil.
func (t *Task) Core() *Core { return t.core }

// Engine returns the owning engine.
func (t *Task) Engine() *Engine { return t.eng }

// PushResumeHook queues fn to run (on the task's virtual CPU) immediately
// before the task body next continues. Hooks run in FIFO order and their
// returned durations are charged as CPU time.
func (t *Task) PushResumeHook(fn func() time.Duration) {
	t.onResume = append(t.onResume, fn)
}

func (t *Task) String() string {
	return fmt.Sprintf("task(%d:%s)", t.ID, t.Name)
}

// Affinity returns the core this task is pinned to.
func (t *Task) Affinity() *Core { return t.affinity }

// Env is the API a task body uses to interact with virtual time and the
// scheduler. It is only valid inside the task's own body.
type Env struct {
	t *Task
}

// Now returns the current virtual time as observed on the task's core.
func (e *Env) Now() time.Duration { return e.t.affinity.now() }

// Schedule enqueues fn on the task's core after delay of virtual time.
func (e *Env) Schedule(delay time.Duration, fn func()) Timer {
	return e.t.affinity.Schedule(delay, fn)
}

// ScheduleAt enqueues fn on the task's core at absolute virtual time at.
func (e *Env) ScheduleAt(at time.Duration, fn func()) Timer {
	return e.t.affinity.ScheduleAt(at, fn)
}

// Task returns the task this environment belongs to.
func (e *Env) Task() *Task { return e.t }

// Engine returns the owning engine.
func (e *Env) Engine() *Engine { return e.t.eng }

// Exec consumes d of CPU time on the current core. The task may be
// interrupted and preempted while executing; Exec returns once the full
// duration has been consumed.
func (e *Env) Exec(d time.Duration) {
	if d <= 0 {
		return
	}
	t := e.t
	t.op = opExec
	t.execRem = d
	t.park()
	t.runResumeHooks()
}

// Block removes the task from the CPU until another context calls
// Wake. The engine charges context-switch costs per the kernel model.
func (e *Env) Block() {
	t := e.t
	t.op = opBlock
	t.park()
	t.runResumeHooks()
}

// SpinWait busy-waits until c completes, consuming CPU the whole time. The
// task remains runnable and can be preempted at scheduler ticks; it resumes
// spinning when rescheduled. This is the polling completion model.
func (e *Env) SpinWait(c *Completion) {
	t := e.t
	if c.Done() {
		return
	}
	t.op = opSpin
	t.spinOn = c
	t.park()
	t.runResumeHooks()
}

// Yield voluntarily releases the CPU (sched_yield).
func (e *Env) Yield() {
	t := e.t
	t.op = opYield
	t.park()
	t.runResumeHooks()
}

// Sleep blocks the task for d of virtual time.
func (e *Env) Sleep(d time.Duration) {
	e.t.affinity.Schedule(d, e.t.wake)
	e.Block()
}

// BlockOn blocks the task until c fires. The context that fires the
// completion is responsible for charging the wakeup (ttwu) cost.
func (e *Env) BlockOn(c *Completion) {
	if c.Done() {
		return
	}
	c.OnFire(e.t.wake)
	e.Block()
}

func (t *Task) runResumeHooks() {
	for len(t.onResume) > 0 {
		fn := t.onResume[0]
		t.onResume = t.onResume[1:]
		cost := fn()
		if cost > 0 {
			t.op = opExec
			t.execRem = cost
			t.park()
		}
	}
}

// Completion is a one-shot condition that tasks can poll (SpinWait) or that
// interrupt handlers can complete. It also records completion time.
type Completion struct {
	done bool
	at   time.Duration
	// first holds the first registered callback inline, so the common
	// single-waiter completion allocates nothing; more holds the rest in
	// registration order.
	first func()
	more  []func()
}

// NewCompletion returns an unfired completion.
func NewCompletion() *Completion { return &Completion{} }

// Done reports whether the completion has fired.
func (c *Completion) Done() bool { return c.done }

// At returns the virtual time the completion fired (zero if pending).
func (c *Completion) At() time.Duration { return c.at }

// OnFire registers a callback invoked when the completion fires. If the
// completion already fired the callback runs immediately.
func (c *Completion) OnFire(fn func()) {
	switch {
	case c.done:
		fn()
	case c.first == nil:
		c.first = fn
	default:
		c.more = append(c.more, fn)
	}
}

// Fire marks the completion done and runs registered callbacks. Firing an
// already-done completion is a no-op.
func (c *Completion) Fire() { c.FireAt(0) }

// FireAt is Fire with an explicit completion timestamp for statistics.
func (c *Completion) FireAt(now time.Duration) {
	if c.done {
		return
	}
	c.done = true
	c.at = now
	if fn := c.first; fn != nil {
		c.first = nil
		fn()
	}
	for _, fn := range c.more {
		fn()
	}
	c.more = nil
}
