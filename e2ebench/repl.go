package main

import (
	"fmt"
	"time"

	"aeolia/internal/cluster"
	"aeolia/internal/netsim"
)

// repl-rf3: the multi-raft block cluster with three OSDs, eight placement
// groups and replication factor 3. Sixteen closed-loop clients run the
// cluster's default 70% write mix over 5 µs links with no fault plan; the
// round's seed is the cluster's seed, and VerifyAcks audits every round.
const (
	replNodes     = 3
	replPGs       = 8
	replRF        = 3
	replClients   = 16
	replOpsPerCli = 256
	replHorizon   = time.Second
)

var replLink = netsim.Config{Latency: 5 * time.Microsecond, BytesPerSec: 10e9, QueueDepth: 256}

func init() {
	register(&workload{name: "repl-rf3", vtRounds: 8, ringCap: 1 << 15, round: replRound})
}

func replRound(rc *roundCtx) (*roundResult, error) {
	ops := replOpsPerCli
	if rc.small {
		ops = 40
	}
	c, err := cluster.New(cluster.Config{
		Nodes: replNodes, PGs: replPGs, RF: replRF,
		Clients: replClients, OpsPerClient: ops,
		Seed: rc.seed, Link: replLink,
	})
	if err != nil {
		return nil, err
	}
	defer c.M.Eng.Shutdown()
	rc.attach(c.M.Eng)
	res := newRoundResult()
	eng0 := c.M.Eng.Stats()
	clients := c.Clients()
	allDone := func() bool {
		rc.drainIfHalfFull()
		if c.Err() != nil {
			return true
		}
		done, all := 0, true
		for _, cl := range clients {
			done += len(cl.WriteLat) + len(cl.ReadLat)
			all = all && cl.Done()
		}
		rc.clock.progress(done)
		return all
	}
	rc.clock.startMeasure()
	c.Start()
	// Fine slices: the measured phase ends, to within a slice, when the
	// last client finishes.
	err = runUntil(c.M.Eng, replHorizon, 5*time.Microsecond, allDone)
	res.vt = c.M.Eng.Now()
	rc.clock.end()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Settle (followers converge) and stop, outside the measured work.
	rc.drainTrace()
	c.Run(replHorizon)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, e := range c.VerifyAcks() {
		res.fail("%v", e)
	}
	for _, cl := range clients {
		if !cl.Done() {
			res.fail("client did not finish its %d ops", ops)
		}
		for _, d := range cl.WriteLat {
			res.record("write", d)
		}
		for _, d := range cl.ReadLat {
			res.record("read", d)
		}
	}
	st := c.Stats()
	res.ops = int(st.AckedWrites + st.Reads)
	if want := replClients * ops; res.ops != want {
		res.fail("%d of %d ops completed", res.ops, want)
		res.ops = want
	}
	cnt := res.counts
	cnt["cluster.acked_writes"] = float64(st.AckedWrites)
	cnt["cluster.reads"] = float64(st.Reads)
	cnt["cluster.retries"] = float64(st.Retries)
	cnt["cluster.timeouts"] = float64(st.Timeouts)
	cnt["raft.msgs"] = float64(st.RaftMsgs)
	cnt["raft.elections"] = float64(st.Elections)
	cnt["netsim.overflows"] = float64(st.TxOverflows)
	engineCounts(res, c.M.Eng, eng0)
	linkCounts(res, c.Fab)
	return res, nil
}
