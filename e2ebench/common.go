package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// engineCounts adds the engine's event and pool counters accrued since
// the before snapshot.
func engineCounts(res *roundResult, eng *sim.Engine, before sim.EngineStats) {
	s := eng.Stats()
	res.counts["sim.events"] += float64(s.SerialEvents + s.WindowEvents - before.SerialEvents - before.WindowEvents)
	res.counts["sim.pool_hits"] += float64(s.PoolHits - before.PoolHits)
	res.counts["sim.pool_misses"] += float64(s.PoolMisses - before.PoolMisses)
}

// nvmeSnap is a device's traffic counters at one point in time.
type nvmeSnap struct{ cmds, bytes uint64 }

func snapDevice(d *nvme.Device) nvmeSnap {
	return nvmeSnap{cmds: d.ReadOps + d.WriteOps + d.FlushOps, bytes: d.BytesRead + d.BytesWrite}
}

// deviceCounts adds the device traffic accrued since before.
func deviceCounts(res *roundResult, d *nvme.Device, before nvmeSnap) {
	now := snapDevice(d)
	res.counts["nvme.dev_cmds"] += float64(now.cmds - before.cmds)
	res.counts["nvme.dev_bytes"] += float64(now.bytes - before.bytes)
}

// threadCounts adds an aeodriver thread's submission and wait counters.
func threadCounts(res *roundResult, th *aeodriver.Thread) {
	c := res.counts
	c["drv.submitted"] += float64(th.Submitted)
	c["drv.batches"] += float64(th.Batches)
	c["drv.batch_cmds"] += float64(th.BatchSubmitted)
	c["drv.blocked_waits"] += float64(th.BlockedWaits)
	c["drv.active_waits"] += float64(th.ActiveCheckWaits)
	c["drv.retries"] += float64(th.Retries)
	c["drv.handler_runs"] += float64(th.HandlerRuns)
	c["drv.out_of_sched"] += float64(th.OutOfSchedDeliv)
}

// cacheCounts adds the page-cache counters accrued since before.
func cacheCounts(res *roundResult, now, before aeofs.CacheStats) {
	c := res.counts
	c["aeofs.hits"] += float64(now.Hits - before.Hits)
	c["aeofs.misses"] += float64(now.Misses - before.Misses)
	c["aeofs.fast_reads"] += float64(now.FastReads - before.FastReads)
	c["aeofs.evictions"] += float64(now.Evictions - before.Evictions)
	c["aeofs.ra_issued"] += float64(now.ReadaheadIssued - before.ReadaheadIssued)
	c["aeofs.ra_waste"] += float64(now.ReadaheadWaste - before.ReadaheadWaste)
	c["aeofs.wb_pages"] += float64(now.WritebackPages - before.WritebackPages)
	c["aeofs.throttled"] += float64(now.Throttled - before.Throttled)
}

// linkCounts adds the fabric's message and overflow counters.
func linkCounts(res *roundResult, fab *netsim.Fabric) {
	for _, l := range fab.Links() {
		res.counts["netsim.sent"] += float64(l.Sent)
		res.counts["netsim.overflows"] += float64(l.Overflows)
	}
}

// runUntil drives the engine in slices of virtual time until done reports
// true, and fails once horizon (absolute virtual time) passes.
func runUntil(eng *sim.Engine, horizon, slice time.Duration, done func() bool) error {
	for !done() {
		if eng.Now() >= horizon {
			return fmt.Errorf("virtual time %v passed before the phase finished", horizon)
		}
		eng.Run(eng.Now() + slice)
	}
	return nil
}
