// Package aeodriver implements AeoDriver, the paper's trusted library NVMe
// driver (§4): complete userspace I/O with submissions through directly
// mapped queue pairs and completions through user interrupts; a per-block
// permission table enforcing protected sharing; the Table 4 API surface
// including privileged variants for trusted entities; and the coordinated-
// scheduling decision points of §6 (after I/O submission and on interrupt-
// handler return) driven by the sched_ext state map.
package aeodriver

import (
	"errors"
	"fmt"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// Errors returned by the driver.
var (
	ErrPerm       = errors.New("aeodriver: block access permission denied")
	ErrPrivileged = errors.New("aeodriver: privileged API rejected for untrusted caller")
	ErrClosed     = errors.New("aeodriver: device not open")
	ErrNoThread   = errors.New("aeodriver: calling task has no queue pair (create_qp first)")
)

// CompletionMode selects how I/O completions reach the driver.
type CompletionMode int

// Completion modes. ModeUserInterrupt is Aeolia's design; ModePoll and
// ModeKernelInterrupt are the Figure 17 ablations (+poll, +k_intr);
// ModeKernelNative is the substrate the kernel-file-system baselines run on.
const (
	ModeUserInterrupt CompletionMode = iota
	ModePoll
	ModeKernelInterrupt
	// ModeKernelNative models a conventional in-kernel consumer of the
	// interrupt (no userspace forwarding): ISR + bottom half + wakeup.
	// The kernel-file-system baselines use it as their I/O substrate.
	ModeKernelNative
)

func (m CompletionMode) String() string {
	switch m {
	case ModeUserInterrupt:
		return "uintr"
	case ModePoll:
		return "poll"
	case ModeKernelInterrupt:
		return "kintr"
	case ModeKernelNative:
		return "knative"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// WaitPolicy selects what a thread does while its I/O is in flight.
type WaitPolicy int

// Wait policies. PolicyCoordinated is Aeolia's active-checking +
// user_try_yield policy; PolicyAlwaysBlock is the +k_yield ablation
// (eagerly yield to the kernel idle task, Figure 17).
const (
	PolicyCoordinated WaitPolicy = iota
	PolicyAlwaysBlock
)

// Default retry parameters (used when Config leaves them zero).
const (
	defaultMaxRetries   = 3
	defaultRetryBackoff = 10 * time.Microsecond
)

// Config parameterizes a driver instance.
type Config struct {
	Mode       CompletionMode
	Policy     WaitPolicy
	QueueDepth int

	// MaxRetries bounds how many times Wait re-submits a command that
	// completed with a transient NVMe status (nvme.Status.Transient)
	// before surfacing the CommandError. 0 selects the default (3);
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles on
	// each subsequent retry. 0 selects the default (10µs).
	RetryBackoff time.Duration
	// RecoverTimeout arms a completion watchdog: if a request's CQE is
	// visible but no notification delivered it within this interval, the
	// driver reaps the queue itself (recovering from a lost interrupt).
	// 0 disables the watchdog (the default: Aeolia's delivery paths make
	// it unnecessary unless notifications are faulted).
	RecoverTimeout time.Duration

	// QueuesPerThread shards each thread's I/O across this many queue
	// pairs (by LBA, see ShardStride), so independent files issue on
	// independent qpairs. 0 or 1 selects the classic single-queue layout.
	QueuesPerThread int
	// ShardStride is the LBA-run length mapped to one shard before the
	// next run moves to the next queue pair. 0 selects the default (256
	// blocks), keeping FS-sized contiguous runs on a single qpair.
	ShardStride uint64
	// Coalesce configures CQ interrupt aggregation on every queue pair
	// the driver creates (zero value: no coalescing).
	Coalesce nvme.Coalescing

	// ZeroCopyRing enables the zero-copy ring datapath: each (thread,
	// shard) pair stages commands through a per-core lock-free SPSC
	// producer ring whose slots carry pre-registered buffers, so a
	// submission pays timing.RingPrep per command (no per-command PRP
	// build) and a completion pays timing.RingComplete (lock-free CQ
	// consume, batched head doorbell) instead of the SQEPrep/CompleteCost
	// halves. Off (the default), the batched SQE path is unchanged.
	ZeroCopyRing bool

	// QoS enables priority-class delivery (ModeUserInterrupt only): each
	// thread's user vectors are registered in a UPID ClassMap, and every
	// command carries the thread's current I/O class as its completion
	// priority tag (see nvme.Coalescing.UrgentMax for the per-class
	// aggregation bypass). Off (the default), the legacy class-less
	// behavior is kept.
	QoS bool
	// IOClass is each thread's initial I/O class when QoS is enabled.
	// Note the zero value is uintr.ClassUrgent — QoS configurations
	// should set it explicitly (uintr.ClassNormal for mixed workloads);
	// SetIOClass changes it per thread at runtime.
	IOClass uintr.Class
}

func (c Config) queues() int {
	if c.QueuesPerThread < 1 {
		return 1
	}
	return c.QueuesPerThread
}

func (c Config) stride() uint64 {
	if c.ShardStride == 0 {
		return 256
	}
	return c.ShardStride
}

func (c Config) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return defaultMaxRetries
	default:
		return c.MaxRetries
	}
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return c.RetryBackoff
}

// Request is an in-flight I/O request handle.
type Request struct {
	op   nvme.Opcode
	lba  uint64
	cnt  uint32
	buf  []byte
	sgl  [][]byte
	done *sim.Completion // fired when the driver has handled the CQE
	cqe  *sim.Completion // fired when the CQE becomes visible (polling)
	// initial holds the completions of the first attempt, so issuing a
	// request allocates nothing beyond the Request; a retry swaps in
	// fresh ones (see resubmit).
	initial struct{ done, cqe sim.Completion }
	status  nvme.Status
	cid     uint16
	// shard is the index of the queue pair the request was issued on.
	shard int
	// ring marks a request submitted through the zero-copy ring datapath;
	// its completion is charged timing.RingComplete instead of
	// timing.CompleteCost.
	ring bool
	// attempts counts submissions of this request (1 + retries).
	attempts int
	// SubmittedAt/DoneAt delimit the request's device-visible lifetime.
	SubmittedAt time.Duration
	DoneAt      time.Duration
}

// Err returns the request's completion status as a typed *CommandError
// (nil for success).
func (r *Request) Err() error {
	if r.status == nvme.StatusSuccess {
		return nil
	}
	return &CommandError{Op: r.op, LBA: r.lba, Blocks: r.cnt, Status: r.status, Attempts: r.attempts}
}

// OnComplete registers fn to run when the driver has handled the request's
// CQE (fire-and-forget completion callback; runs immediately if the request
// is already done). The callback executes in engine context — it must not
// park (no Exec/Block/mutex), only inspect the request and flip state.
// Unlike Wait, OnComplete performs no retries: check r.Err() in fn.
func (r *Request) OnComplete(fn func(*Request)) {
	done := r.done
	done.OnFire(func() { fn(r) })
}

// pendKey identifies an in-flight request: queue pairs assign CIDs
// independently, so a CID alone is ambiguous across shards.
type pendKey struct {
	shard int
	cid   uint16
}

// Thread is the per-thread driver state: one or more dedicated queue pairs
// (sharded by LBA), a distinct hardware vector (§6.1: per-thread vectors make
// out-of-schedule interrupts miss UINV), and the thread's UPID. In
// ModeUserInterrupt all shards post into the one UPID — shard i posts user
// vector i — so a single notification delivery drains every pending shard.
type Thread struct {
	drv    *Driver
	task   *sim.Task
	qps    []*nvme.QueuePair
	vector int
	upid   *uintr.UPID
	// rings are the per-shard lock-free SPSC staging rings of the
	// zero-copy datapath (nil unless Config.ZeroCopyRing): the submitting
	// task is the only producer and the in-gate drain the only consumer,
	// so command staging takes no lock.
	rings []*nvme.SPSC[nvme.SubmissionEntry]
	// class is the thread's current I/O class (QoS configurations only):
	// submissions carry it as their completion priority tag and the UPID
	// class map keeps the shard vectors in it.
	class uintr.Class

	pending map[pendKey]*Request

	// Stats.
	Submitted        uint64
	HandlerRuns      uint64
	OutOfSchedDeliv  uint64
	YieldsFromIRQ    uint64
	BlockedWaits     uint64
	ActiveCheckWaits uint64
	// Batches counts SubmitBatch calls; BatchSubmitted counts commands
	// issued through them.
	Batches        uint64
	BatchSubmitted uint64
	// Retries counts transient-error re-submissions; NotifyRecovered
	// counts completions the watchdog reaped after a lost notification.
	Retries         uint64
	NotifyRecovered uint64
	// RingStaged counts commands that traveled through a zero-copy
	// staging ring.
	RingStaged uint64
}

// QueuePairs exposes the thread's shard set (tests and diagnostics).
func (th *Thread) QueuePairs() []*nvme.QueuePair { return th.qps }

// PendingRequests reports the number of in-flight requests (tests).
func (th *Thread) PendingRequests() int { return len(th.pending) }

// shardFor maps an LBA to the queue pair it issues on: runs of stride
// blocks round-robin across the shards, so contiguous FS extents stay on
// one qpair while independent files land on independent qpairs.
func (th *Thread) shardFor(lba uint64) int {
	if len(th.qps) == 1 {
		return 0
	}
	return int((lba / th.drv.cfg.stride()) % uint64(len(th.qps)))
}

// hasCompletions reports whether any shard has unconsumed CQEs.
func (th *Thread) hasCompletions() bool {
	for _, qp := range th.qps {
		if qp.HasCompletions() {
			return true
		}
	}
	return false
}

// notifyHeld reports whether any shard is intentionally holding back its
// completion notification under interrupt coalescing (aggregation window
// still open). The watchdog must not treat such completions as lost.
func (th *Thread) notifyHeld() bool {
	for _, qp := range th.qps {
		if qp.NotifyPending() {
			return true
		}
	}
	return false
}

// notifyInFlight reports whether a notification for this thread's UPID has
// been raised but not yet recognized (ON set). The completions it covers
// are on their way — not lost — so the watchdog must stand down. A
// fault-dropped notification deliberately leaves ON clear, keeping real
// recovery intact.
func (th *Thread) notifyInFlight() bool {
	return th.upid != nil && th.upid.ON
}

// Driver is an AeoDriver instance: one per process.
type Driver struct {
	kern *aeokern.Kernel
	proc *aeokern.Process
	cfg  Config

	gate       *mpk.Gate
	permRegion *mpk.Region
	perm       *PermTable

	ext *sched.ExtMap

	threads map[*sim.Task]*Thread
	open    bool

	dmaBytes int64
}

// Open initializes an AeoDriver instance for the process (Table 4 ①). The
// gate is the process's trusted-entity call gate produced by the privileged
// launcher; the permission table is initialized from the kernel-maintained
// partition.
func Open(kern *aeokern.Kernel, proc *aeokern.Process, gate *mpk.Gate, cfg Config) (*Driver, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	d := &Driver{
		kern:       kern,
		proc:       proc,
		cfg:        cfg,
		gate:       gate,
		permRegion: kern.Sys.NewRegion(fmt.Sprintf("permtable-%s", proc.Name), gate.Key()),
		perm:       NewPermTable(kern.Device().NumBlocks()),
		ext:        kern.ExtMap(),
		threads:    make(map[*sim.Task]*Thread),
		open:       true,
	}
	// Initialize block permissions from the kernel's coarse partition.
	part := proc.Partition
	p := PermRead
	if part.Writable {
		p = PermRW
	}
	d.perm.SetRange(part.Start, part.Blocks, p)
	return d, nil
}

// Close releases all driver resources (Table 4 ②).
func (d *Driver) Close() {
	for t, th := range d.threads {
		for _, qp := range th.qps {
			d.kern.FreeQueuePair(d.proc, qp)
		}
		d.kern.UnregisterThreadUintr(t)
		delete(d.threads, t)
	}
	d.open = false
}

// Gate returns the process's trusted-entity gate (shared with the AeoFS
// trust layer, which lives in the same protection domain).
func (d *Driver) Gate() *mpk.Gate { return d.gate }

// Process returns the owning process.
func (d *Driver) Process() *aeokern.Process { return d.proc }

// Kernel returns the backing kernel.
func (d *Driver) Kernel() *aeokern.Kernel { return d.kern }

// Mode returns the driver's completion mode.
func (d *Driver) Mode() CompletionMode { return d.cfg.Mode }

// Config returns the driver's configuration.
func (d *Driver) Config() Config { return d.cfg }

// CreateQP allocates the calling task's queue pairs (one per configured
// shard) and wires their completion paths according to the driver's mode
// (Table 4 ③).
func (d *Driver) CreateQP(env *sim.Env) (*Thread, error) {
	if !d.open {
		return nil, ErrClosed
	}
	t := env.Task()
	if th, ok := d.threads[t]; ok {
		return th, nil
	}
	qps, err := d.kern.AllocQueuePairs(d.proc, d.cfg.queues(), d.cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	for _, qp := range qps {
		qp.SetCoalescing(d.cfg.Coalesce)
	}
	th := &Thread{
		drv:     d,
		task:    t,
		qps:     qps,
		pending: make(map[pendKey]*Request),
	}
	if d.cfg.ZeroCopyRing {
		th.rings = make([]*nvme.SPSC[nvme.SubmissionEntry], len(qps))
		for i := range th.rings {
			th.rings[i] = nvme.NewSPSC[nvme.SubmissionEntry](d.cfg.QueueDepth)
		}
	}
	freeAll := func() {
		for _, qp := range qps {
			d.kern.FreeQueuePair(d.proc, qp)
		}
	}
	switch d.cfg.Mode {
	case ModeUserInterrupt:
		// One notification vector and one UPID for the whole thread;
		// shard i posts user vector i, so recognition of a single
		// notification transfers every pending shard's bit at once.
		vec, err := d.kern.AllocVector(th.kernelDeliver)
		if err != nil {
			freeAll()
			return nil, err
		}
		th.vector = vec
		upid, _ := d.kern.MapUPID(t.Affinity(), vec, d.gate)
		th.upid = upid
		if d.cfg.QoS {
			th.class = d.cfg.IOClass
			upid.Classes = uintr.NewClassMap(uintr.ClassNormal)
			for i := range qps {
				upid.Classes.Set(uint8(i%uintr.MaxVectors), th.class)
			}
		}
		for i, qp := range qps {
			d.kern.ProgramMSIX(qp, upid, uint8(i%uintr.MaxVectors), t.Affinity(), vec)
		}
		d.kern.RegisterThreadUintr(t, vec, upid, th.userHandler)
	case ModeKernelNative:
		if err := th.wireKernelVectors(t, th.kernelNativeDeliver, freeAll); err != nil {
			return nil, err
		}
	case ModeKernelInterrupt:
		if err := th.wireKernelVectors(t, th.kernelIntrDeliver, freeAll); err != nil {
			return nil, err
		}
	case ModePoll:
		// No interrupt wiring; the thread discovers CQEs by polling.
	}
	d.threads[t] = th
	return th, nil
}

// wireKernelVectors allocates one kernel interrupt vector per shard and
// programs each qpair's MSI-X entry onto it (kernel-path completion modes).
func (th *Thread) wireKernelVectors(t *sim.Task, deliver aeokern.KernelDeliver, undo func()) error {
	for i, qp := range th.qps {
		vec, err := th.drv.kern.AllocVector(deliver)
		if err != nil {
			undo()
			return err
		}
		if i == 0 {
			th.vector = vec
		}
		th.drv.kern.ProgramMSIX(qp, nil, 0, t.Affinity(), vec)
	}
	return nil
}

// DeleteQP releases the calling task's queue pairs (Table 4 ④).
func (d *Driver) DeleteQP(env *sim.Env) error {
	t := env.Task()
	th, ok := d.threads[t]
	if !ok {
		return ErrNoThread
	}
	for _, qp := range th.qps {
		d.kern.FreeQueuePair(d.proc, qp)
	}
	d.kern.UnregisterThreadUintr(t)
	delete(d.threads, t)
	return nil
}

// AllocDMABuf allocates a DMA-able data buffer (Table 4 ⑤).
func (d *Driver) AllocDMABuf(size int) []byte {
	d.dmaBytes += int64(size)
	return make([]byte, size)
}

// FreeDMABuf returns a DMA buffer (Table 4 ⑥).
func (d *Driver) FreeDMABuf(buf []byte) {
	d.dmaBytes -= int64(cap(buf))
}

// DMABytes reports currently allocated DMA memory.
func (d *Driver) DMABytes() int64 { return d.dmaBytes }

// thread returns the per-task driver state.
func (d *Driver) thread(t *sim.Task) (*Thread, error) {
	th, ok := d.threads[t]
	if !ok {
		return nil, ErrNoThread
	}
	return th, nil
}

// ReadBlk reads cnt blocks at lba into buf with permission enforcement
// (Table 4 ⑦).
func (d *Driver) ReadBlk(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.syncIO(env, nvme.OpRead, lba, cnt, buf, false)
}

// WriteBlk writes cnt blocks at lba from buf with permission enforcement
// (Table 4 ⑧).
func (d *Driver) WriteBlk(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.syncIO(env, nvme.OpWrite, lba, cnt, buf, false)
}

// ReadPriv reads blocks bypassing the permission table (Table 4 ⑨); only
// trusted entities may call it.
func (d *Driver) ReadPriv(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncIO(env, nvme.OpRead, lba, cnt, buf, true)
}

// WritePriv writes blocks bypassing the permission table (Table 4 ⑩); only
// trusted entities may call it.
func (d *Driver) WritePriv(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncIO(env, nvme.OpWrite, lba, cnt, buf, true)
}

// Flush issues a device flush (persistence barrier).
func (d *Driver) Flush(env *sim.Env) error {
	return d.syncIO(env, nvme.OpFlush, 0, 0, nil, true)
}

// GetPerm returns a block's permission (Table 4 ⑪); trusted entities only.
func (d *Driver) GetPerm(env *sim.Env, blk uint64) (Perm, error) {
	if !d.proc.Thread.InTrustedGate() {
		return PermNone, ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, false); err != nil {
		return PermNone, err
	}
	return d.perm.Get(blk), nil
}

// PermTrace, when set, observes every permission change to WatchBlk
// (debugging).
var PermTrace func(op string, blk uint64, p Perm)

// WatchBlk is the block PermTrace observes.
var WatchBlk uint64

func tracePerm(op string, blk uint64, p Perm) {
	if PermTrace != nil && blk == WatchBlk {
		PermTrace(op, blk, p)
	}
}

// SetPerm changes a block's permission (Table 4 ⑫); trusted entities only.
func (d *Driver) SetPerm(env *sim.Env, blk uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	tracePerm("set", blk, p)
	d.perm.Set(blk, p)
	return nil
}

// GrantPerm widens a block's permission (OR semantics), so concurrent
// grants for different access modes never downgrade each other; trusted
// entities only.
func (d *Driver) GrantPerm(env *sim.Env, blk uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	tracePerm("grant", blk, d.perm.Get(blk)|p)
	d.perm.Set(blk, d.perm.Get(blk)|p)
	return nil
}

// SetPermRange changes a block range's permission; trusted entities only.
func (d *Driver) SetPermRange(env *sim.Env, blk, n uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	if PermTrace != nil && WatchBlk >= blk && WatchBlk < blk+n {
		PermTrace("setrange", WatchBlk, p)
	}
	d.perm.SetRange(blk, n, p)
	return nil
}

// syncIO is the synchronous I/O path: submit inside the trusted gate, then
// wait per the driver's completion mode and policy.
func (d *Driver) syncIO(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte, priv bool) error {
	req, err := d.Submit(env, op, lba, cnt, buf, priv)
	if err != nil {
		return err
	}
	return d.Wait(env, req)
}

// Submit issues an asynchronous I/O request. Entering the trusted driver
// costs the gate toll; the permission check happens inside the gate.
func (d *Driver) Submit(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte, priv bool) (*Request, error) {
	if !d.open {
		return nil, ErrClosed
	}
	if priv && !d.proc.Thread.InTrustedGate() {
		return nil, ErrPrivileged
	}
	th, err := d.thread(env.Task())
	if err != nil {
		return nil, err
	}
	var req *Request
	d.gate.Call(env, d.proc.Thread, func() {
		if !priv && op != nvme.OpFlush && !d.perm.Allows(lba, uint64(cnt), op == nvme.OpWrite) {
			err = fmt.Errorf("%w: %v [%d,+%d)", ErrPerm, op, lba, cnt)
			return
		}
		if d.cfg.ZeroCopyRing {
			// Ring datapath: stage one pre-registered command and ring
			// the tail doorbell — no per-command PRP build.
			env.Exec(timing.RingPrep + timing.DoorbellWrite)
		} else {
			env.Exec(timing.SubmitCost)
		}
		req, err = th.submit(env, op, lba, cnt, buf)
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// IOVec is one segment of a vectored batch request. Buf is the contiguous
// transfer buffer; SG, when non-empty, replaces it with a scatter-gather
// list of block-aligned segments (gather-DMA: pages submitted in place,
// zero staging copies).
type IOVec struct {
	LBA uint64
	Cnt uint32
	Buf []byte
	SG  [][]byte
}

// SubmitBatch issues a whole vector of same-opcode commands through a single
// trusted-gate entry, paying the per-command SQE-prep cost once per segment
// but the gate toll and the doorbell MMIO cost only once per (shard, batch).
// Segments are routed to their LBA shard and each shard's commands ring one
// doorbell. Admission is all-or-nothing: if any segment fails its permission
// check or any shard lacks SQ capacity for its share, nothing is enqueued.
func (d *Driver) SubmitBatch(env *sim.Env, op nvme.Opcode, iov []IOVec, priv bool) ([]*Request, error) {
	if !d.open {
		return nil, ErrClosed
	}
	if len(iov) == 0 {
		return nil, nil
	}
	if priv && !d.proc.Thread.InTrustedGate() {
		return nil, ErrPrivileged
	}
	th, err := d.thread(env.Task())
	if err != nil {
		return nil, err
	}
	var reqs []*Request
	d.gate.Call(env, d.proc.Thread, func() {
		// Atomic permission precheck: reject the whole batch before
		// anything reaches a submission queue.
		if !priv {
			for _, v := range iov {
				if op != nvme.OpFlush && !d.perm.Allows(v.LBA, uint64(v.Cnt), op == nvme.OpWrite) {
					err = fmt.Errorf("%w: %v [%d,+%d) (batch of %d rejected)", ErrPerm, op, v.LBA, v.Cnt, len(iov))
					return
				}
			}
		}
		// Group segments by shard, preserving order within each shard.
		// Shards then submit in index order: they share one device,
		// whose channel and bus booking depends on submission order.
		byShard := make([][]int, len(th.qps))
		shards := 0
		for i, v := range iov {
			s := th.shardFor(v.LBA)
			if len(byShard[s]) == 0 {
				shards++
			}
			byShard[s] = append(byShard[s], i)
		}
		// Capacity precheck across every shard keeps admission atomic.
		for s, idxs := range byShard {
			if len(idxs) > 0 && th.qps[s].Inflight()+len(idxs) > d.cfg.QueueDepth-1 {
				err = fmt.Errorf("%w (shard %d: %d inflight + %d batch > depth %d)",
					nvme.ErrSQFull, s, th.qps[s].Inflight(), len(idxs), d.cfg.QueueDepth)
				return
			}
		}
		perCmd := timing.SQEPrep
		if d.cfg.ZeroCopyRing {
			perCmd = timing.RingPrep
		}
		env.Exec(time.Duration(len(iov))*perCmd + time.Duration(shards)*timing.DoorbellWrite)
		now := env.Now()
		reqs = make([]*Request, len(iov))
		for s, idxs := range byShard {
			if len(idxs) == 0 {
				continue
			}
			entries := make([]nvme.SubmissionEntry, len(idxs))
			done := make([]*sim.Completion, len(idxs))
			for j, i := range idxs {
				v := iov[i]
				entries[j] = nvme.SubmissionEntry{Opcode: op, SLBA: v.LBA, NLB: v.Cnt, Data: v.Buf, SGL: v.SG, Prio: th.prioTag()}
				req := &Request{
					op:          op,
					lba:         v.LBA,
					cnt:         v.Cnt,
					buf:         v.Buf,
					sgl:         v.SG,
					shard:       s,
					ring:        th.rings != nil,
					attempts:    1,
					SubmittedAt: now,
				}
				req.done, req.cqe = &req.initial.done, &req.initial.cqe
				done[j] = req.cqe
				reqs[i] = req
			}
			if th.rings != nil {
				entries = th.stageRing(s, entries)
			}
			first, serr := th.qps[s].SubmitBatch(entries, done)
			if serr != nil {
				err = serr
				return
			}
			for j, i := range idxs {
				req := reqs[i]
				req.cid = first + uint16(j)
				th.pending[pendKey{s, req.cid}] = req
				th.Submitted++
				th.BatchSubmitted++
				th.armWatchdog(req)
			}
		}
		th.Batches++
	})
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

// WaitAll waits for every request in order and returns the first error.
func (d *Driver) WaitAll(env *sim.Env, reqs []*Request) error {
	var first error
	for _, req := range reqs {
		if err := d.Wait(env, req); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncVBatch submits iov in admission-sized chunks (SubmitBatch is
// all-or-nothing, so a vector longer than the SQ can hold must be split)
// and waits for each chunk before submitting the next.
func (d *Driver) syncVBatch(env *sim.Env, op nvme.Opcode, iov []IOVec, priv bool) error {
	max := d.cfg.QueueDepth / 2
	if max < 1 {
		max = 1
	}
	for len(iov) > 0 {
		n := min(len(iov), max)
		reqs, err := d.SubmitBatch(env, op, iov[:n], priv)
		if err != nil {
			return err
		}
		if err := d.WaitAll(env, reqs); err != nil {
			return err
		}
		iov = iov[n:]
	}
	return nil
}

// ReadVBatch reads every segment of iov with one batched submission and
// waits for all of them (vectored synchronous read).
func (d *Driver) ReadVBatch(env *sim.Env, iov []IOVec) error {
	return d.syncVBatch(env, nvme.OpRead, iov, false)
}

// WriteVBatch writes every segment of iov with one batched submission and
// waits for all of them (vectored synchronous write).
func (d *Driver) WriteVBatch(env *sim.Env, iov []IOVec) error {
	return d.syncVBatch(env, nvme.OpWrite, iov, false)
}

// ReadVPriv and WriteVPriv are the privileged vectored variants (trusted
// entities only), used by AeoFS for multi-extent fills and flushes.
func (d *Driver) ReadVPriv(env *sim.Env, iov []IOVec) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncVBatch(env, nvme.OpRead, iov, true)
}

func (d *Driver) WriteVPriv(env *sim.Env, iov []IOVec) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncVBatch(env, nvme.OpWrite, iov, true)
}

// prioTag encodes the thread's I/O class as the nvme completion priority
// tag (class+1; 0 = untagged for class-less configurations).
func (th *Thread) prioTag() uint8 {
	if !th.drv.cfg.QoS {
		return 0
	}
	return uint8(th.class) + 1
}

// SetIOClass retags the calling thread's I/O class: subsequent submissions
// carry it as their completion priority tag, and the thread's UPID vectors
// move into it so deliveries are ordered (and preempt) accordingly. Service
// workers call this per admitted request with the tenant's class. No-op
// unless the driver was configured with QoS.
func (d *Driver) SetIOClass(env *sim.Env, class uintr.Class) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	if !d.cfg.QoS || th.class == class {
		return nil
	}
	th.class = class
	if th.upid != nil && th.upid.Classes != nil {
		for i := range th.qps {
			th.upid.Classes.Set(uint8(i%uintr.MaxVectors), class)
		}
	}
	return nil
}

// IOClass returns the calling thread's current I/O class.
func (d *Driver) IOClass(env *sim.Env) (uintr.Class, error) {
	th, err := d.thread(env.Task())
	if err != nil {
		return 0, err
	}
	return th.class, nil
}

// stageRing pushes a shard's batch through its lock-free SPSC staging ring
// and returns the drained, submission-ordered entries. The caller already
// prechecked SQ capacity and the ring holds at least QueueDepth slots, so
// the push/pop interleave below always terminates: when the ring fills
// mid-batch, the in-gate consumer drains a slot before the producer
// continues (the same backpressure a device-polled ring applies).
func (th *Thread) stageRing(s int, entries []nvme.SubmissionEntry) []nvme.SubmissionEntry {
	r := th.rings[s]
	out := make([]nvme.SubmissionEntry, 0, len(entries))
	for len(entries) > 0 || r.Len() > 0 {
		if len(entries) > 0 && r.Push(entries[0]) {
			entries = entries[1:]
			th.RingStaged++
			continue
		}
		if e, ok := r.Pop(); ok {
			out = append(out, e)
		}
	}
	return out
}

func (th *Thread) submit(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte) (*Request, error) {
	req := &Request{
		op:          op,
		lba:         lba,
		cnt:         cnt,
		buf:         buf,
		shard:       th.shardFor(lba),
		ring:        th.rings != nil,
		SubmittedAt: env.Now(),
	}
	req.done, req.cqe = &req.initial.done, &req.initial.cqe
	qp := th.qps[req.shard]
	entry := nvme.SubmissionEntry{Opcode: op, SLBA: lba, NLB: cnt, Data: buf, Prio: th.prioTag()}
	if th.rings != nil {
		if th.rings[req.shard].Push(entry) {
			th.RingStaged++
			entry, _ = th.rings[req.shard].Pop()
		}
	}
	cid, err := qp.Submit(entry, req.cqe)
	if err != nil {
		return nil, err
	}
	req.cid = cid
	req.attempts++
	th.pending[pendKey{req.shard, req.cid}] = req
	th.Submitted++
	th.armWatchdog(req)
	return req, nil
}

// resubmit re-issues a request that completed with a transient error. The
// original submission already passed the gate and permission checks, so the
// retry goes straight to the queue pair, like a storage driver requeueing a
// failed command.
func (th *Thread) resubmit(env *sim.Env, req *Request) error {
	// Fresh completions, not rearmed ones: the previous attempt's watchdog
	// tells a superseded submission apart by req.done's identity.
	req.done = sim.NewCompletion()
	req.status = nvme.StatusSuccess
	qp := th.qps[req.shard]
	cqe := sim.NewCompletion()
	cid, err := qp.Submit(nvme.SubmissionEntry{Opcode: req.op, SLBA: req.lba, NLB: req.cnt, Data: req.buf, SGL: req.sgl, Prio: th.prioTag()}, cqe)
	if err != nil {
		return err
	}
	req.cqe = cqe
	req.cid = cid
	req.attempts++
	th.pending[pendKey{req.shard, req.cid}] = req
	th.Submitted++
	th.Retries++
	th.armWatchdog(req)
	return nil
}

// armWatchdog schedules a lost-notification check for req if the driver has
// a recovery timeout configured.
func (th *Thread) armWatchdog(req *Request) {
	d := th.drv.cfg.RecoverTimeout
	if d <= 0 {
		return
	}
	eng := th.drv.kern.Engine()
	done := req.done
	var check func()
	check = func() {
		// A fired (or replaced, on retry) completion means the normal
		// delivery path already handled this submission.
		if done.Done() || req.done != done {
			return
		}
		if th.hasCompletions() && !th.notifyHeld() && !th.notifyInFlight() {
			// A CQE is sitting in a queue with no aggregation window
			// open and nothing consumed it: the notification was
			// lost. Reap it ourselves. (When notifyHeld, the CQE is
			// intentionally parked behind interrupt coalescing — the
			// armed aggregation timer will deliver it, so reaping
			// here would be a false recovery. When notifyInFlight,
			// an urgent-class completion already bypassed the
			// aggregation and its notification is outstanding — the
			// UPID's ON bit guarantees recognition will drain it, so
			// reaping here would double-count the completion as both
			// delivered and recovered.)
			th.NotifyRecovered++
			th.drainCQ(eng.Now())
		}
		if !done.Done() && req.done == done {
			eng.Schedule(d, check)
		}
	}
	eng.Schedule(d, check)
}

// Wait blocks (per policy) until req completes, then charges the
// completion-side software cost and returns the request's status. Transient
// NVMe failures (nvme.Status.Transient) are retried with exponential
// backoff, up to the configured retry budget, before surfacing a typed
// *CommandError.
func (d *Driver) Wait(env *sim.Env, req *Request) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	backoff := d.cfg.retryBackoff()
	retriesLeft := d.cfg.maxRetries()
	for {
		d.waitDone(env, th, req)
		if !req.status.Transient() || retriesLeft == 0 {
			break
		}
		// Transient device error: back off and requeue the command.
		retriesLeft--
		env.Sleep(backoff)
		backoff *= 2
		env.Exec(timing.SubmitCost)
		if err := th.resubmit(env, req); err != nil {
			// SQ full: surface the original failure.
			break
		}
	}
	if req.ring {
		// Ring datapath: phase-bit CQ consume with a batched head
		// doorbell, cheaper than the classic completion half.
		env.Exec(timing.RingComplete)
	} else {
		env.Exec(timing.CompleteCost)
	}
	return req.Err()
}

// waitDone runs the mode/policy wait loop until req's completion fires.
func (d *Driver) waitDone(env *sim.Env, th *Thread, req *Request) {
	for !req.done.Done() {
		switch {
		case d.cfg.Mode == ModePoll:
			// Busy-poll the completion queue.
			env.SpinWait(req.cqe)
			th.drainCQ(env.Now())
		case d.cfg.Policy == PolicyAlwaysBlock || d.othersRunnable(env):
			// Scheduling decision point after issuing the I/O
			// (§3.3): yield the core while the I/O is in flight.
			// The out-of-schedule user interrupt takes the kernel
			// path, wakes us, and inserts the handler frame.
			th.BlockedWaits++
			env.BlockOn(req.done)
		default:
			// Active checking (§2.1): no other runnable task, so
			// stay on the CPU; the in-schedule user interrupt
			// resumes us directly.
			th.ActiveCheckWaits++
			env.SpinWait(req.done)
		}
	}
}

// SetNotifyHook installs (or, with nil, removes) a notification
// fault-injection hook on the calling task's UPID. Only meaningful in
// ModeUserInterrupt, where completions are delivered via UPID notifications.
func (d *Driver) SetNotifyHook(env *sim.Env, h uintr.NotifyHook) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	if th.upid == nil {
		return fmt.Errorf("aeodriver: no UPID to hook (mode %v)", d.cfg.Mode)
	}
	th.upid.Hook = h
	return nil
}

// UPID exposes the thread's user-interrupt posting descriptor (nil outside
// ModeUserInterrupt); tests use it to inspect notification stats.
func (th *Thread) UPID() *uintr.UPID { return th.upid }

// othersRunnable consults the sched_ext map: is any other task runnable on
// this core?
func (d *Driver) othersRunnable(env *sim.Env) bool {
	c := env.Task().Core()
	if c == nil {
		return false
	}
	return d.ext.Snapshot(c).NrRunning > 1
}

// drainShard consumes all visible CQEs on one queue pair and fires their
// requests.
func (th *Thread) drainShard(si int, now time.Duration) int {
	// A stack buffer holds a typical drain; a deeper one grows onto the
	// heap rather than splitting the poll.
	var buf [32]nvme.CompletionEntry
	n := 0
	for _, ce := range th.qps[si].Poll(buf[:0], 0) {
		req := th.pending[pendKey{si, ce.CID}]
		if req == nil {
			continue
		}
		delete(th.pending, pendKey{si, ce.CID})
		req.status = ce.Status
		req.DoneAt = now
		req.done.FireAt(now)
		n++
	}
	return n
}

// drainCQ consumes all visible CQEs on every shard and fires their requests.
func (th *Thread) drainCQ(now time.Duration) int {
	n := 0
	for si := range th.qps {
		n += th.drainShard(si, now)
	}
	return n
}

// emitHandler emits a HandlerEnter/HandlerExit bracket on the thread's
// engine; a no-op when tracing is off. The analyzer uses these brackets to
// distinguish delivery-path CQ consumption from recovery reaps.
func (th *Thread) emitHandler(typ trace.Type, core int, aux uint64) {
	eng := th.drv.kern.Engine()
	if tr := eng.Tracer; tr != nil {
		tr.Emit(eng.Now(), typ, core, -1, trace.NoCID, 0, aux)
	}
}

// userHandler is the userspace user-interrupt handler (§4.2): it identifies
// the interrupt source by checking the hardware completion queue, handles
// completions, rewrites the UPID PIR (implicit: recognition cleared it),
// and evaluates user_try_yield before returning (§6.1 decision point). The
// delivered user vector names the shard whose CQ raised it; out-of-range
// vectors (or single-queue layouts) drain everything.
func (th *Thread) userHandler(ctx *sim.IRQCtx, uv uint8) {
	th.HandlerRuns++
	th.emitHandler(trace.HandlerEnter, ctx.Core().ID, uint64(uv))
	defer th.emitHandler(trace.HandlerExit, ctx.Core().ID, uint64(uv))
	if int(uv) < len(th.qps) {
		th.drainShard(int(uv), ctx.Now())
	} else {
		th.drainCQ(ctx.Now())
	}
	// Figure 8: yield only when the policy demands it.
	snap := th.drv.ext.Snapshot(ctx.Core())
	if sched.UserTryYield(snap, ctx.Now()) {
		th.YieldsFromIRQ++
		ctx.Core().SetNeedResched()
	}
}

// kernelDeliver is the out-of-schedule user-interrupt path (§6.1): the
// vector missed UINV, so it arrives as a regular kernel interrupt. The
// kernel wakes the target thread (setting the reschedule flag via wakeup
// preemption) and rewrites its saved context to insert a stack frame that
// runs the userspace handler before the thread resumes.
func (th *Thread) kernelDeliver(ctx *sim.IRQCtx, vec int) {
	th.OutOfSchedDeliv++
	ctx.Charge(timing.KernelInterrupt)
	// The kernel observes the posted bits and consumes the PIR on the
	// thread's behalf (clearing ON so future posts notify again).
	pir := th.upid.TakePIR()
	if tr := ctx.Engine().Tracer; tr != nil && th.upid.Classes != nil {
		tr.Emit(ctx.Now(), trace.UPIDClear, th.upid.DestCPU, -1, trace.NoCID, 0, pir)
	}
	th.deliverViaKernel(ctx)
}

// deliverViaKernel finishes a kernel-path delivery: if the target thread is
// actively checking on a CPU, handle the completion in interrupt context;
// otherwise insert the userspace handler frame and wake/resched the thread.
func (th *Thread) deliverViaKernel(ctx *sim.IRQCtx) {
	t := th.task
	if t.State() == sim.TaskRunning {
		th.HandlerRuns++
		th.emitHandler(trace.HandlerEnter, ctx.Core().ID, trace.KernelPathAux)
		th.drainCQ(ctx.Now())
		th.emitHandler(trace.HandlerExit, ctx.Core().ID, trace.KernelPathAux)
		return
	}
	t.PushResumeHook(func() time.Duration {
		th.HandlerRuns++
		core := -1
		if c := th.task.Core(); c != nil {
			core = c.ID
		}
		th.emitHandler(trace.HandlerEnter, core, trace.KernelPathAux)
		th.drainCQ(th.drv.kern.Engine().Now())
		th.emitHandler(trace.HandlerExit, core, trace.KernelPathAux)
		return timing.HandlerExec
	})
	switch t.State() {
	case sim.TaskBlocked:
		ctx.Charge(timing.WakeupTTWU)
		ctx.Engine().Wake(t)
	case sim.TaskRunnable:
		if th.drv.kern.Sched().ShouldPreempt(t, ctx.Core()) {
			ctx.Core().SetNeedResched()
		}
	}
}

// kernelIntrDeliver is the ModeKernelInterrupt (+k_intr) completion path:
// a conventional kernel ISR plus eventfd-style forwarding to userspace.
func (th *Thread) kernelIntrDeliver(ctx *sim.IRQCtx, vec int) {
	ctx.Charge(timing.KernelInterrupt + timing.KernelBottomHalf + timing.EventfdForward)
	th.deliverViaKernel(ctx)
}

// kernelNativeDeliver is the in-kernel completion path (ModeKernelNative):
// interrupt + bottom half, then waking the in-kernel waiter.
func (th *Thread) kernelNativeDeliver(ctx *sim.IRQCtx, vec int) {
	ctx.Charge(timing.KernelInterrupt + timing.KernelBottomHalf)
	th.deliverViaKernel(ctx)
}

// Perm exposes the permission table for verification in tests and attacks.
// Mutation must go through SetPerm; this accessor is read-only by
// convention (the region check guards real accesses).
func (d *Driver) PermSnapshot(blk uint64) Perm { return d.perm.Get(blk) }

// DebugThread renders a thread's diagnostic state (tests only).
func (d *Driver) DebugThread(t *sim.Task) string {
	th, ok := d.threads[t]
	if !ok {
		return "no-thread"
	}
	inflight := 0
	for _, qp := range th.qps {
		inflight += qp.Inflight()
	}
	var pir uint64
	if th.upid != nil {
		pir = th.upid.PIR
	}
	return fmt.Sprintf("submitted=%d handler=%d oos=%d pending=%d inflight=%d cqe=%v upidPIR=%#x",
		th.Submitted, th.HandlerRuns, th.OutOfSchedDeliv, len(th.pending), inflight, th.hasCompletions(), pir)
}
