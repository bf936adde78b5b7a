package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/aeomds"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// svc-mds-open: two aeomds shards and two aeosvc data nodes, each over
// AeoFS with the default unbounded cache and a hot set that fits. 32
// aeomds.Client connections are fed by an open-loop Poisson generator at
// three fixed arrival rates (below, near and above the knee). Each request
// is a session: open→4 KiB read→close, open→4 KiB write→close, or one
// namespace op (stat, create, unlink), timed from its due time.
const (
	svcShards      = 2
	svcDataNodes   = 2
	svcConns       = 32
	svcClientCores = 4
	svcDirs        = 8
	svcHotFiles    = 256
	svcFileBytes   = 32 << 10 // 256 × 32 KiB = an 8 MiB hot set
	svcPage        = 4096
	svcNodeBlocks  = 1 << 13 // 32 MiB partition per data node
	svcMetaLive    = 8       // cap on each connection's created files
	svcPctRead     = 75
	svcPctWrite    = 15
	// svcSLO is the fixed p99 latency limit of vt_slo_attain and
	// vt_max_rate_kops.
	svcSLO = 100 * time.Microsecond
)

// svcRates are the fixed arrival rates in requests per second, chosen
// once on the commit that introduced this benchmark from a sweep of the
// default configuration: below, near and above the knee.
var svcRates = [3]float64{250e3, 375e3, 500e3}

// svcRequestsPerRate is each rate's request count in one round.
const svcRequestsPerRate = 2560

// svcLink shapes every fabric link, as in the metadata-scaling figure.
var svcLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

func init() {
	register(&workload{name: "svc-mds-open", vtRounds: 8, ringCap: 1 << 16, round: svcRound, derive: deriveSvc})
}

func svcHotPath(i int) string { return fmt.Sprintf("/d%d/h%d", i%svcDirs, i) }

// svcStamp/svcCheck stamp a hot-file page with its identity and version
// and check a read of it against the window of versions it may hold.
func svcStamp(p []byte, file, page, ver, tag uint64) {
	le := binary.LittleEndian
	le.PutUint64(p[0:], file)
	le.PutUint64(p[8:], page)
	le.PutUint64(p[16:], ver)
	le.PutUint64(p[24:], tag)
	le.PutUint64(p[len(p)-8:], file^page^ver^tag)
}

func svcCheck(p []byte, file, page, minVer, maxVer, tag uint64) bool {
	le := binary.LittleEndian
	ver := le.Uint64(p[16:])
	return le.Uint64(p[0:]) == file && le.Uint64(p[8:]) == page && ver >= minVer && ver <= maxVer &&
		le.Uint64(p[24:]) == tag && le.Uint64(p[len(p)-8:]) == file^page^ver^tag
}

// svcPageVer bounds the version a read of one hot page may return.
// Sessions on different connections may write the page concurrently, and
// versions are taken in issue order, so while writes overlap the server
// may apply them in any order. Once the last of a group of overlapping
// writes has finished, each has been applied, so the page holds one of the
// group's versions: at least the group's first, which is larger than any
// version written before the group.
type svcPageVer struct {
	inflight int
	// groupMin is the first version of the current group of overlapping
	// writes.
	groupMin uint64
	// floor is the smallest version a read starting now may return; max
	// the highest version issued.
	floor, max uint64
}

// svcPages tracks every hot page's svcPageVer; a page never written holds
// version 1 from the set-up.
type svcPages map[[2]uint64]*svcPageVer

func (ps svcPages) get(file int, page uint64) *svcPageVer {
	k := [2]uint64{uint64(file), page}
	p := ps[k]
	if p == nil {
		p = &svcPageVer{floor: 1, max: 1}
		ps[k] = p
	}
	return p
}

// issue records a write of version ver starting; done records it finished.
func (p *svcPageVer) issue(ver uint64) {
	if p.inflight == 0 {
		p.groupMin = ver
	}
	p.inflight++
	if ver > p.max {
		p.max = ver
	}
}

func (p *svcPageVer) done() {
	p.inflight--
	if p.inflight == 0 {
		p.floor = p.groupMin
	}
}

// svcReq is one generated request.
type svcReq struct {
	due  time.Duration
	kind int // 0 read, 1 write, 2 namespace
	// meta picks the namespace op: 0 stat, 1 create, 2 unlink.
	meta int
	file int
	page uint64
	id   uint64
}

// dueTimes returns n Poisson arrival times at rate (per second) starting
// at start, drawn from r alone.
func dueTimes(r *rng, n int, rate float64, start time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	t := float64(start)
	for i := range out {
		t += -math.Log(1-r.float()) / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}

// openLoop feeds generated requests to a pool of connections at their due
// times: an engine event per due time appends the request to a FIFO and
// wakes an idle connection. The backlog is the FIFO's length.
type openLoop struct {
	eng     *sim.Engine
	reqs    []svcReq
	next    int // next request to become due
	queue   []*svcReq
	idle    sim.WaitQueue
	taken   int
	backlog []int // FIFO length after each arrival
}

func (g *openLoop) start() {
	if len(g.reqs) > 0 {
		g.eng.ScheduleAt(g.reqs[0].due, g.arrive)
	}
}

func (g *openLoop) arrive() {
	g.queue = append(g.queue, &g.reqs[g.next])
	g.next++
	g.backlog = append(g.backlog, len(g.queue))
	g.idle.Signal(g.eng)
	if g.next < len(g.reqs) {
		g.eng.ScheduleAt(g.reqs[g.next].due, g.arrive)
	}
}

// take blocks until a request is queued and returns it, or nil once every
// request has been handed out.
func (g *openLoop) take(env *sim.Env) *svcReq {
	for len(g.queue) == 0 {
		if g.taken == len(g.reqs) {
			return nil
		}
		g.idle.Wait(env)
	}
	r := g.queue[0]
	g.queue = g.queue[1:]
	g.taken++
	if g.taken == len(g.reqs) {
		g.idle.Broadcast(g.eng)
	}
	return r
}

// backlogEnd is the FIFO length when the last request arrived.
func (g *openLoop) backlogEnd() int {
	if len(g.backlog) == 0 {
		return 0
	}
	return g.backlog[len(g.backlog)-1]
}

// svcSystem is one built svc-mds-open deployment.
type svcSystem struct {
	m       *machine.Machine
	fab     *netsim.Fabric
	fis     []*machine.FSInstance
	fsts    []*aeosvc.Server
	mds     *aeomds.Service
	clients []*aeomds.Client
	cores   []*sim.Core
}

func svcBuild(rc *roundCtx) (*svcSystem, error) {
	cores := 1 + 2*svcDataNodes + svcShards + svcClientCores
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: svcDataNodes * svcNodeBlocks})
	rc.attach(m.Eng)
	s := &svcSystem{m: m}
	// Data servers first: BuildFS drains the engine, so no server loop
	// may be live yet.
	for i := 0; i < svcDataNodes; i++ {
		fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
			Partition: aeokern.Partition{Start: uint64(i) * svcNodeBlocks, Blocks: svcNodeBlocks, Writable: true},
			Journals:  8,
		})
		if err != nil {
			return nil, fmt.Errorf("data node %d: %w", i, err)
		}
		s.fis = append(s.fis, fi)
	}
	s.fab = netsim.New(m.Eng, rc.seed)
	var dataEPs []string
	for i, fi := range s.fis {
		ep := fmt.Sprintf("fst%d", i)
		srv := aeosvc.NewServer(s.fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{Endpoint: ep})
		srv.Start(m.Eng.Core(1+2*i), []*sim.Core{m.Eng.Core(2 + 2*i)})
		s.fsts = append(s.fsts, srv)
		dataEPs = append(dataEPs, ep)
	}
	s.mds = aeomds.NewService(s.fab, aeomds.Config{Shards: svcShards, DataNodes: svcDataNodes})
	var shardCores []*sim.Core
	for i := 0; i < svcShards; i++ {
		shardCores = append(shardCores, m.Eng.Core(1+2*svcDataNodes+i))
	}
	s.mds.Start(shardCores)
	for i := 0; i < svcShards; i++ {
		for j := 0; j < svcShards; j++ {
			if i != j {
				s.fab.Connect(aeomds.ShardEndpoint(i), aeomds.ShardEndpoint(j), svcLink)
			}
		}
	}
	for i := 0; i < svcConns; i++ {
		c := aeomds.NewClient(s.fab, aeomds.ClientConfig{ID: i, Shards: svcShards, DataEndpoints: dataEPs})
		ep := aeomds.ClientEndpoint(i)
		for sh := 0; sh < svcShards; sh++ {
			s.fab.Connect(ep, aeomds.ShardEndpoint(sh), svcLink)
			s.fab.Connect(aeomds.ShardEndpoint(sh), ep, svcLink)
		}
		for _, d := range dataEPs {
			s.fab.Connect(ep, d, svcLink)
			s.fab.Connect(d, ep, svcLink)
		}
		s.clients = append(s.clients, c)
		s.cores = append(s.cores, m.Eng.Core(1+2*svcDataNodes+svcShards+i%svcClientCores))
	}
	return s, nil
}

// svcConnState is one connection's namespace bookkeeping.
type svcConnState struct {
	live []string
	seq  int
}

func svcRound(rc *roundCtx) (*roundResult, error) {
	perRate := svcRequestsPerRate
	if rc.small {
		perRate = 400
	}
	s, err := svcBuild(rc)
	if err != nil {
		return nil, err
	}
	m := s.m
	defer m.Eng.Shutdown()
	res := newRoundResult()
	tag := rc.seed

	// Set-up: the directories, one per connection for namespace ops, and
	// the hot set, every page at version 1.
	var setupErr error
	setupDone := false
	m.Eng.Spawn("setup", s.cores[0], func(env *sim.Env) {
		setupErr = svcSetup(env, s.clients[0], tag)
		setupDone = true
	})
	if err := runUntil(m.Eng, time.Second, time.Millisecond, func() bool {
		rc.drainIfHalfFull()
		return setupDone
	}); err != nil {
		return nil, fmt.Errorf("svc set-up: %w", err)
	}
	if setupErr != nil {
		return nil, fmt.Errorf("svc set-up: %w", setupErr)
	}

	eng0, dev0 := m.Eng.Stats(), snapDevice(m.Dev)
	var cache0 []aeofs.CacheStats
	for _, fi := range s.fis {
		cache0 = append(cache0, fi.AeoFS.CacheStats())
	}
	var meta0 uint64
	for _, c := range s.clients {
		meta0 += c.MetaOps
	}
	pages := svcPages{}
	var nextVer uint64 = 1
	conns := make([]svcConnState, svcConns)
	r := newRNG(rc.seed ^ 0x5DEECE66D)
	rc.clock.startMeasure()
	for k, rate := range svcRates {
		start := m.Eng.Now() + time.Millisecond
		due := dueTimes(r, perRate, rate, start)
		g := &openLoop{eng: m.Eng, reqs: make([]svcReq, perRate)}
		for i := range g.reqs {
			q := &g.reqs[i]
			q.due = due[i]
			q.id = uint64(k)<<32 | uint64(i)
			u := r.intn(100)
			switch {
			case u < svcPctRead:
				q.kind = 0
			case u < svcPctRead+svcPctWrite:
				q.kind = 1
			default:
				q.kind = 2
			}
			q.meta = r.intn(3)
			q.file = r.intn(svcHotFiles)
			q.page = uint64(r.intn(svcFileBytes / svcPage))
		}
		var lastEnd time.Duration
		finished := 0
		for i := 0; i < svcConns; i++ {
			i := i
			m.Eng.Spawn(fmt.Sprintf("conn%d", i), s.cores[i], func(env *sim.Env) {
				buf := make([]byte, svcPage)
				for q := g.take(env); q != nil; q = g.take(env) {
					res.ops++
					begin := env.Now()
					sp := rc.spans.begin("svc.req", 0, q.id, i, q.due)
					rc.spans.add("gen.wait", sp, q.id, i, q.due, begin)
					var err error
					switch q.kind {
					case 0:
						err = svcRead(env, rc, s.clients[i], q, sp, i, buf, pages.get(q.file, q.page), tag)
					case 1:
						// The version is taken when the write is issued,
						// so a concurrent read may already see it.
						nextVer++
						pv := pages.get(q.file, q.page)
						pv.issue(nextVer)
						err = svcWrite(env, rc, s.clients[i], q, sp, i, buf, nextVer, tag)
						pv.done()
					default:
						err = svcMeta(env, rc, s.clients[i], q, sp, &conns[i], i)
					}
					end := env.Now()
					rc.spans.end(sp, end)
					if end > lastEnd {
						lastEnd = end
					}
					lat := end - q.due
					res.counts["requests"]++
					if err != nil {
						res.fail("rate %d request %d: %v", k, q.id&0xffffffff, err)
						res.record(fmt.Sprintf("rate%d.all", k), time.Duration(math.MaxInt64))
						continue
					}
					res.record(fmt.Sprintf("rate%d.all", k), lat)
					switch k {
					case 0:
						// Per-type latency below the knee, where it
						// reflects service time more than queueing.
						res.record([3]string{"read", "write", "meta"}[q.kind], lat)
					case 1:
						if lat <= svcSLO {
							res.counts["rate1.within_slo"]++
						}
						res.record("gen_lag", begin-q.due)
					}
				}
				finished++
			})
		}
		g.start()
		if err := runUntil(m.Eng, due[len(due)-1]+time.Second, 100*time.Microsecond, func() bool {
			rc.clock.progress(int(res.counts["requests"]))
			rc.drainIfHalfFull()
			return finished == svcConns
		}); err != nil {
			return nil, fmt.Errorf("rate %d: %w", k, err)
		}
		if g.taken != len(g.reqs) {
			return nil, fmt.Errorf("rate %d: %d of %d requests served", k, g.taken, len(g.reqs))
		}
		res.counts[fmt.Sprintf("rate%d.backlog_end", k)] = float64(g.backlogEnd())
		if g.backlogEnd() > svcConns {
			// More requests waiting than connections when the last one
			// arrived: the backlog grows at this rate.
			res.counts[fmt.Sprintf("rate%d.growing", k)] = 1
		}
		res.counts[fmt.Sprintf("rate%d.vt_ns", k)] = float64(lastEnd - start)
		res.vt += lastEnd - start
		if k == 1 {
			res.counts["bench.backlog_end"] = float64(g.backlogEnd())
		}
	}
	rc.clock.end()

	// Drain and audit the books.
	s.mds.Stop()
	for _, f := range s.fsts {
		f.Stop()
	}
	m.Run(0)
	if err := s.mds.Err(); err != nil {
		res.fail("mds: %v", err)
	}
	if err := s.mds.CheckAccounting(); err != nil {
		res.fail("mds accounting: %v", err)
	}
	for i, f := range s.fsts {
		if err := f.CheckAccounting(); err != nil {
			res.fail("data node %d accounting: %v", i, err)
		}
		st := f.Stats()
		res.counts["aeosvc.received"] += float64(st.Received)
		res.counts["aeosvc.shed"] += float64(st.Shed)
	}
	engineCounts(res, m.Eng, eng0)
	deviceCounts(res, m.Dev, dev0)
	for i, fi := range s.fis {
		cacheCounts(res, fi.AeoFS.CacheStats(), cache0[i])
	}
	for _, c := range s.clients {
		res.counts["aeomds.meta_ops"] += float64(c.MetaOps)
	}
	res.counts["aeomds.meta_ops"] -= float64(meta0)
	res.counts["aeomds.granted"] = float64(s.mds.Granted)
	res.counts["aeomds.revoked"] = float64(s.mds.Revoked)
	linkCounts(res, s.fab)
	return res, nil
}

func svcSetup(env *sim.Env, c *aeomds.Client, tag uint64) error {
	for d := 0; d < svcDirs; d++ {
		if err := c.Mkdir(env, fmt.Sprintf("/d%d", d)); err != nil {
			return err
		}
	}
	for i := 0; i < svcConns; i++ {
		if err := c.Mkdir(env, fmt.Sprintf("/n%d", i)); err != nil {
			return err
		}
	}
	buf := make([]byte, svcFileBytes)
	for f := 0; f < svcHotFiles; f++ {
		for p := 0; p < svcFileBytes/svcPage; p++ {
			svcStamp(buf[p*svcPage:(p+1)*svcPage], uint64(f), uint64(p), 1, tag)
		}
		path := svcHotPath(f)
		if err := c.Open(env, path, true, true); err != nil {
			return err
		}
		if _, err := c.WriteAt(env, path, buf, 0); err != nil {
			return err
		}
		if err := c.Close(env, path); err != nil {
			return err
		}
	}
	return nil
}

// svcCall wraps one client call in a span.
func svcCall(env *sim.Env, rc *roundCtx, name string, parent int, q *svcReq, tid int, fn func() error) error {
	c := rc.spans.begin(name, parent, q.id, tid, env.Now())
	err := fn()
	rc.spans.end(c, env.Now())
	return err
}

func svcRead(env *sim.Env, rc *roundCtx, c *aeomds.Client, q *svcReq, sp, tid int, buf []byte, pv *svcPageVer, tag uint64) error {
	path := svcHotPath(q.file)
	if err := svcCall(env, rc, "aeomds.open", sp, q, tid, func() error { return c.Open(env, path, false, false) }); err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	var n int
	floor := pv.floor
	err := svcCall(env, rc, "aeosvc.data", sp, q, tid, func() (e error) {
		n, e = c.ReadAt(env, path, buf, q.page*svcPage)
		return e
	})
	if cerr := svcCall(env, rc, "aeomds.close", sp, q, tid, func() error { return c.Close(env, path) }); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	if err != nil {
		return err
	}
	if n != len(buf) || !svcCheck(buf, uint64(q.file), q.page, floor, pv.max, tag) {
		return fmt.Errorf("read %s page %d: stale or corrupt page (want version %d..%d)", path, q.page, floor, pv.max)
	}
	return nil
}

func svcWrite(env *sim.Env, rc *roundCtx, c *aeomds.Client, q *svcReq, sp, tid int, buf []byte, ver, tag uint64) error {
	path := svcHotPath(q.file)
	if err := svcCall(env, rc, "aeomds.open", sp, q, tid, func() error { return c.Open(env, path, false, true) }); err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	svcStamp(buf, uint64(q.file), q.page, ver, tag)
	err := svcCall(env, rc, "aeosvc.data", sp, q, tid, func() error {
		_, e := c.WriteAt(env, path, buf, q.page*svcPage)
		return e
	})
	if cerr := svcCall(env, rc, "aeomds.close", sp, q, tid, func() error { return c.Close(env, path) }); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	return err
}

// svcMeta runs one namespace op: stat of a hot file, create of a new
// file in the connection's directory, or unlink of its oldest one.
func svcMeta(env *sim.Env, rc *roundCtx, c *aeomds.Client, q *svcReq, sp int, st *svcConnState, conn int) error {
	kind := q.meta
	switch {
	case kind == 0:
		path := svcHotPath(q.file)
		var resp aeomds.Response
		if err := svcCall(env, rc, "aeomds.stat", sp, q, conn, func() (e error) {
			resp, e = c.Stat(env, path)
			return e
		}); err != nil {
			return fmt.Errorf("stat %s: %w", path, err)
		}
		if resp.Size != svcFileBytes {
			return fmt.Errorf("stat %s: size %d, want %d", path, resp.Size, svcFileBytes)
		}
	case kind == 1 && len(st.live) < svcMetaLive, kind == 2 && len(st.live) == 0:
		path := fmt.Sprintf("/n%d/c%d", conn, st.seq)
		st.seq++
		if err := svcCall(env, rc, "aeomds.open", sp, q, conn, func() error { return c.Open(env, path, true, true) }); err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := svcCall(env, rc, "aeomds.close", sp, q, conn, func() error { return c.Close(env, path) }); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		st.live = append(st.live, path)
	default:
		path := st.live[0]
		st.live = st.live[1:]
		if err := svcCall(env, rc, "aeomds.unlink", sp, q, conn, func() error { return c.Unlink(env, path) }); err != nil {
			return fmt.Errorf("unlink %s: %w", path, err)
		}
	}
	return nil
}

// deriveSvc adds the open-loop metrics: p99 at every rate, SLO
// attainment at the middle rate, and the highest rate meeting the limit
// without a growing backlog.
func deriveSvc(a *aggregate, rep *report) {
	deriveMeta(a, rep)
	mid := a.get("rate1.all")
	rep.e2e("vt_slo_attain", "ratio", ratio(a.counts["rate1.within_slo"], float64(mid.Count())), mid.Count())
	maxRate := 0.0
	for k, rate := range svcRates {
		all := a.get(fmt.Sprintf("rate%d.all", k))
		p99 := all.Percentile(99)
		rep.e2e(fmt.Sprintf("vt_rate%d_p99_us", k), "us", us(p99), all.Count())
		rep.e2e(fmt.Sprintf("vt_rate%d_backlog_end", k), "count", a.counts[fmt.Sprintf("rate%d.backlog_end", k)]/float64(a.rounds), 0)
		if p99 <= svcSLO && a.counts[fmt.Sprintf("rate%d.growing", k)] == 0 && rate > maxRate {
			maxRate = rate
		}
	}
	rep.e2e("vt_max_rate_kops", "kops/s", maxRate/1e3, 0)
	top := a.get("rate2.all")
	rep.set("vt_kops", float64(top.Count())/(a.counts["rate2.vt_ns"]/1e9)/1e3)
}
