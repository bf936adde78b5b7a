//go:build go1.23

// The go1.23 constraint raises this file's language version above the
// module's go 1.22 line so it may use iter.Pull (DESIGN.md §14); the
// toolchain line in go.mod guarantees a toolchain that compiles it.

package sim

import "iter"

// runner is a pooled task frame: a runtime coroutine (iter.Pull) that runs
// task bodies one after another. A simulated context switch is one
// coroutine switch each way — next() from the dispatch path into the body,
// yield from the body's park back out — with no channel, no scheduler
// wakeup and no allocation. Runners are reused across task lifetimes, so
// churny workloads do not pay a goroutine spawn per task.
type runner struct {
	// task is bound by Spawn; the runner starts its body on the first
	// next() after the previous task returned.
	task  *Task
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newRunner() *runner {
	r := &runner{}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// loop is the coroutine body. After each task returns it hands control
// back to the dispatcher and, once resumed, runs whichever task Spawn has
// bound since; stop() ends it.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		runTask(r.task)
		if !yield(struct{}{}) {
			return
		}
	}
}

func runTask(t *Task) {
	defer func() {
		// A stop (Engine.Shutdown) unwinds quietly; any other panic
		// leaves the coroutine and reaches the dispatcher's next() caller
		// with its original value.
		if rec := recover(); rec != nil && rec != errAborted {
			panic(rec)
		}
	}()
	t.body(&Env{t: t})
	t.op = opDone
}

// park transfers control from the task body back to the dispatcher and
// returns when the dispatcher resumes this task. When Engine.Shutdown stops
// the runner instead, it unwinds the body.
func (t *Task) park() {
	if !t.runner.yield(struct{}{}) {
		panic(errAborted)
	}
}

// resume runs t's body until its next park (or return).
func (t *Task) resume() {
	if _, ok := t.runner.next(); !ok {
		panic("sim: resumed a task whose runner has exited")
	}
}
