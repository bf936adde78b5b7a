package main

import "fmt"

// named is a metric name and unit as BENCHMARK.json lists it.
type named struct{ name, unit string }

// endToEndMetrics are the metrics of an untraced run's JSON line: those
// every workload has and none reads 0. The workload-specific end-to-end
// metrics (vt_meta_*, vt_slo_attain, vt_max_rate_kops) and fail_ratio,
// which is 0 on a passing run, are printed in the table only.
var endToEndMetrics = []named{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_allocs_per_op", "count"},
	{"host_maxrss_mb", "MB"},
	{"vt_kops", "kops/s"},
	{"vt_read_p50_us", "us"},
	{"vt_read_p99_us", "us"},
	{"vt_write_p50_us", "us"},
	{"vt_write_p99_us", "us"},
}

// perLayerMetrics are the metrics of a traced run's JSON line. A layer a
// workload does not cross reads 0.
var perLayerMetrics = func() []named {
	ms := []named{
		{"sim.events_per_op", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.pool_hit_ratio", "ratio"},
		{"nvme.cmds_per_op", "count"},
		{"nvme.doorbells_per_cmd", "ratio"},
		{"nvme.irq_per_cmd", "ratio"},
		{"uintr.notify_per_cmd", "ratio"},
		{"uintr.notify_suppressed_ratio", "ratio"},
		{"uintr.out_of_sched_ratio", "ratio"},
		{"aeodriver.submit.vt_p50_us", "us"},
		{"aeodriver.submit.vt_p99_us", "us"},
		{"aeodriver.wait.vt_p99_us", "us"},
		{"aeodriver.batch_size", "count"},
		{"aeodriver.blocked_wait_ratio", "ratio"},
		{"aeodriver.retries", "count"},
		{"aeofs.hit_ratio", "ratio"},
		{"aeofs.evictions_per_op", "count"},
		{"aeofs.readahead_waste_ratio", "ratio"},
		{"aeofs.writeback_pages_per_write", "count"},
		{"aeofs.throttled", "count"},
		{"aeofs.dev_bytes_per_user_byte", "ratio"},
		{"aeofs.fast_read_ratio", "ratio"},
	}
	for _, op := range []string{"read", "write", "fsync", "open"} {
		ms = append(ms, named{"vfs." + op + ".vt_p50_us", "us"}, named{"vfs." + op + ".vt_p99_us", "us"})
	}
	ms = append(ms,
		named{"netsim.msgs_per_op", "count"},
		named{"netsim.bytes_per_op", "B"},
		named{"netsim.overflows", "count"},
		named{"aeosvc.data.vt_p99_us", "us"},
		named{"aeosvc.shed_ratio", "ratio"},
		named{"aeomds.open.vt_p99_us", "us"},
		named{"aeomds.close.vt_p99_us", "us"},
		named{"aeomds.meta_ops_per_req", "count"},
		named{"aeomds.leases_granted", "count"},
		named{"aeomds.leases_revoked", "count"},
		named{"raft.msgs_per_write", "count"},
		named{"raft.elections", "count"},
		named{"cluster.retries_per_op", "count"},
		named{"cluster.timeouts", "count"},
	)
	for _, st := range traceStages {
		ms = append(ms, named{"trace.stage." + st + ".vt_p50_us", "us"}, named{"trace.stage." + st + ".vt_p99_us", "us"})
	}
	ms = append(ms,
		named{"trace.copies_per_chain", "count"},
		named{"trace.events_per_op", "count"},
		named{"trace.violations", "count"},
		named{"trace.dropped", "count"},
	)
	for _, kind := range []string{"cpu", "alloc"} {
		for _, m := range hostModules {
			ms = append(ms, named{fmt.Sprintf("host.%s_share.%s", kind, m), "ratio"})
		}
	}
	ms = append(ms,
		named{"bench.gen_lag_p99_us", "us"},
		named{"bench.backlog_end", "count"},
		named{"bench.unattributed_share", "ratio"},
		named{"bench.trace_overhead", "ratio"},
	)
	return ms
}()

// traceStages are the engine-trace stages of block and service chains.
var traceStages = []string{
	"prep_doorbell", "doorbell_device", "device", "post_consume", "end_to_end",
	"svc_recv_admit", "svc_admit_fsop", "svc_fsop_reply", "svc_end_to_end",
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills the per-layer metrics from the traced rounds' aggregate.
func (rep *report) layers(a *aggregate, untracedOpsPerSec, tracedOpsPerSec, hostNsPerEvent float64) {
	c := a.counts
	ops := float64(a.ops)
	events := c["sim.events"]
	rep.lyr("sim.events_per_op", "count", ratio(events, ops), 0)
	rep.lyr("sim.host_ns_per_event", "ns", hostNsPerEvent, 0)
	rep.lyr("sim.pool_hit_ratio", "ratio", ratio(c["sim.pool_hits"], c["sim.pool_hits"]+c["sim.pool_misses"]), 0)

	cmds := c["tr.sqe_prep"]
	rep.lyr("nvme.cmds_per_op", "count", ratio(cmds, ops), 0)
	rep.lyr("nvme.doorbells_per_cmd", "ratio", ratio(c["tr.doorbells"], cmds), 0)
	rep.lyr("nvme.irq_per_cmd", "ratio", ratio(c["tr.irq_raise"], c["tr.cqe_post"]), 0)
	rep.lyr("uintr.notify_per_cmd", "ratio", ratio(c["tr.uintr_deliver"], cmds), 0)
	rep.lyr("uintr.notify_suppressed_ratio", "ratio", ratio(c["tr.upid_post"]-c["tr.uintr_deliver"], c["tr.upid_post"]), 0)
	rep.lyr("uintr.out_of_sched_ratio", "ratio", ratio(c["tr.handler_kernel"], c["tr.handler_enter"]), 0)

	sub := a.get("span:aeodriver.submit")
	rep.lyr("aeodriver.submit.vt_p50_us", "us", us(sub.Percentile(50)), sub.Count())
	rep.lyr("aeodriver.submit.vt_p99_us", "us", us(sub.Percentile(99)), sub.Count())
	wt := a.get("span:aeodriver.wait")
	rep.lyr("aeodriver.wait.vt_p99_us", "us", us(wt.Percentile(99)), wt.Count())
	rep.lyr("aeodriver.batch_size", "count", ratio(c["drv.batch_cmds"], c["drv.batches"]), 0)
	rep.lyr("aeodriver.blocked_wait_ratio", "ratio", ratio(c["drv.blocked_waits"], c["drv.blocked_waits"]+c["drv.active_waits"]), 0)
	rep.lyr("aeodriver.retries", "count", c["drv.retries"], 0)

	rep.lyr("aeofs.hit_ratio", "ratio", ratio(c["aeofs.hits"], c["aeofs.hits"]+c["aeofs.misses"]), 0)
	rep.lyr("aeofs.evictions_per_op", "count", ratio(c["aeofs.evictions"], ops), 0)
	rep.lyr("aeofs.readahead_waste_ratio", "ratio", ratio(c["aeofs.ra_waste"], c["aeofs.ra_issued"]), 0)
	rep.lyr("aeofs.writeback_pages_per_write", "count", ratio(c["aeofs.wb_pages"], c["user.writes"]), 0)
	rep.lyr("aeofs.throttled", "count", c["aeofs.throttled"], 0)
	rep.lyr("aeofs.dev_bytes_per_user_byte", "ratio", ratio(c["nvme.dev_bytes"], c["user.bytes"]), 0)
	rep.lyr("aeofs.fast_read_ratio", "ratio", ratio(c["aeofs.fast_reads"], c["aeofs.hits"]+c["aeofs.misses"]), 0)
	for _, op := range []string{"read", "write", "fsync", "open"} {
		rep.latPair(rep.lyr, "vfs."+op+".vt", a, "span:vfs."+op)
	}

	rep.lyr("netsim.msgs_per_op", "count", ratio(c["tr.net_msgs"], ops), 0)
	rep.lyr("netsim.bytes_per_op", "B", ratio(c["tr.net_bytes"], ops), 0)
	rep.lyr("netsim.overflows", "count", c["netsim.overflows"], 0)
	data := a.get("span:aeosvc.data")
	rep.lyr("aeosvc.data.vt_p99_us", "us", us(data.Percentile(99)), data.Count())
	rep.lyr("aeosvc.shed_ratio", "ratio", ratio(c["aeosvc.shed"], c["aeosvc.received"]), 0)
	op, cl := a.get("span:aeomds.open"), a.get("span:aeomds.close")
	rep.lyr("aeomds.open.vt_p99_us", "us", us(op.Percentile(99)), op.Count())
	rep.lyr("aeomds.close.vt_p99_us", "us", us(cl.Percentile(99)), cl.Count())
	rep.lyr("aeomds.meta_ops_per_req", "count", ratio(c["aeomds.meta_ops"], c["requests"]), 0)
	rep.lyr("aeomds.leases_granted", "count", c["aeomds.granted"], 0)
	rep.lyr("aeomds.leases_revoked", "count", c["aeomds.revoked"], 0)

	rep.lyr("raft.msgs_per_write", "count", ratio(c["raft.msgs"], c["cluster.acked_writes"]), 0)
	rep.lyr("raft.elections", "count", c["raft.elections"], 0)
	rep.lyr("cluster.retries_per_op", "count", ratio(c["cluster.retries"], ops), 0)
	rep.lyr("cluster.timeouts", "count", c["cluster.timeouts"], 0)

	for _, st := range traceStages {
		rep.latPair(rep.lyr, "trace.stage."+st+".vt", a, "stage:"+st)
	}
	rep.lyr("trace.copies_per_chain", "count", ratio(c["tr.copies"], c["tr.copy_chains"]), 0)
	rep.lyr("trace.events_per_op", "count", ratio(c["tr.events"], ops), 0)
	rep.lyr("trace.violations", "count", c["tr.violations"], 0)
	rep.lyr("trace.dropped", "count", c["tr.dropped"], 0)

	for _, kind := range []string{"cpu", "alloc"} {
		for _, m := range hostModules {
			rep.lyr(fmt.Sprintf("host.%s_share.%s", kind, m), "ratio", rep.shares[kind][m], 0)
		}
	}

	lag := a.get("gen_lag")
	rep.lyr("bench.gen_lag_p99_us", "us", us(lag.Percentile(99)), lag.Count())
	rep.lyr("bench.backlog_end", "count", ratio(c["bench.backlog_end"], float64(a.rounds)), 0)
	rep.lyr("bench.unattributed_share", "ratio", ratio(c["tr.spans.unattributed_ns"], c["tr.spans.root_ns"]), 0)
	rep.lyr("bench.trace_overhead", "ratio", ratio(untracedOpsPerSec, tracedOpsPerSec), 0)
}
