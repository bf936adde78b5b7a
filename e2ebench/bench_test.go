package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// smallRun runs one workload at its smallest size, untraced.
func smallRun(t *testing.T, name string, seed uint64) *report {
	t.Helper()
	rep, err := execute(workloads[name], options{workload: name, seed: seed, small: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return rep
}

// TestDeterminism runs every workload twice on one seed: the digest of
// its vt_* values and model counts must repeat. A held-out seed must give
// another digest and still pass every audit.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, b := smallRun(t, name, 7), smallRun(t, name, 7)
			if a.digest != b.digest {
				t.Fatalf("seed 7 digests differ: %s vs %s", a.digest, b.digest)
			}
			for _, m := range a.endToEnd {
				if strings.HasPrefix(m.name, "vt_") {
					if mb, _ := b.value(m.name); mb.value != m.value {
						t.Errorf("%s: %v then %v", m.name, m.value, mb.value)
					}
				}
			}
			held := smallRun(t, name, 8)
			if held.digest == a.digest {
				t.Errorf("seeds 7 and 8 give the same digest %s", a.digest)
			}
			for _, r := range []*report{a, held} {
				if !r.correct {
					t.Errorf("audit failed: %s", r.firstFailure)
				}
			}
		})
	}
}

// TestTracedRunIsClean runs one workload with tracing: the trace must be
// violation-free, drop nothing, leave the model's results unchanged, and
// the span set must nest.
func TestTracedRunIsClean(t *testing.T) {
	dir := t.TempDir()
	rep, err := execute(workloads["svc-mds-open"], options{workload: "svc-mds-open", seed: 3, small: true, trace: true, out: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct {
		t.Fatalf("traced run failed: %s", rep.firstFailure)
	}
	for _, n := range perLayerMetrics {
		if _, ok := rep.value(n.name); !ok {
			t.Errorf("per-layer metric %s missing", n.name)
		}
	}
	if m, _ := rep.value("aeomds.open.vt_p99_us"); m.value <= 0 {
		t.Errorf("no aeomds.open spans")
	}
	if _, err := os.Stat(dir + "/spans-svc-mds-open-seed3.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// TestDueTimesFromSeed checks that due times depend on the seed alone and
// arrive at the requested rate.
func TestDueTimesFromSeed(t *testing.T) {
	a := dueTimes(newRNG(1), 20000, 100e3, time.Millisecond)
	b := dueTimes(newRNG(1), 20000, 100e3, time.Millisecond)
	c := dueTimes(newRNG(2), 20000, 100e3, time.Millisecond)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("due time %d differs for one seed", i)
		}
	}
	if a[10] == c[10] {
		t.Errorf("different seeds give the same due times")
	}
	mean := float64(a[len(a)-1]-time.Millisecond) / float64(len(a))
	if want := float64(10 * time.Microsecond); mean < 0.97*want || mean > 1.03*want {
		t.Errorf("mean inter-arrival %v, want about %v", time.Duration(mean), time.Duration(want))
	}
}

// TestOpenLoopChargesStalls feeds one connection whose service takes 10 µs
// with a request due every 4 µs: each request is timed from its due time,
// so the queueing behind earlier ones is charged to it, and the backlog
// grows.
func TestOpenLoopChargesStalls(t *testing.T) {
	eng := sim.NewEngine(1, sched.NewEEVDF())
	defer eng.Shutdown()
	const n = 50
	g := &openLoop{eng: eng, reqs: make([]svcReq, n)}
	for i := range g.reqs {
		g.reqs[i].due = time.Duration(i) * 4 * time.Microsecond
	}
	var lat, lag []time.Duration
	eng.Spawn("conn", eng.Core(0), func(env *sim.Env) {
		for q := g.take(env); q != nil; q = g.take(env) {
			lag = append(lag, env.Now()-q.due)
			env.Sleep(10 * time.Microsecond)
			lat = append(lat, env.Now()-q.due)
		}
	})
	g.start()
	eng.Run(0)
	if len(lat) != n {
		t.Fatalf("served %d of %d", len(lat), n)
	}
	for i := 1; i < n; i++ {
		// Service takes at least 10 µs and requests are due 4 µs apart,
		// so each waits at least 6 µs longer than the one before it.
		if lat[i]-lat[i-1] < 6*time.Microsecond {
			t.Fatalf("request %d latency %v after %v: the stall is not charged from the due time", i, lat[i], lat[i-1])
		}
		if lag[i] <= lag[i-1] {
			t.Fatalf("generator lag does not grow under a stall: %v then %v", lag[i-1], lag[i])
		}
	}
	if g.backlogEnd() <= 1 {
		t.Errorf("backlog at the last arrival %d, want a growing backlog", g.backlogEnd())
	}
}

// TestGrowingBacklogDoesNotCount checks vt_max_rate_kops: a rate whose
// backlog grows is excluded even when its p99 meets the limit.
func TestGrowingBacklogDoesNotCount(t *testing.T) {
	a := newAggregate()
	a.rounds = 1
	for k := range svcRates {
		l := a.get(fmt.Sprintf("rate%d.all", k))
		for i := 0; i < 100; i++ {
			l.Record(10 * time.Microsecond)
		}
		a.lat[fmt.Sprintf("rate%d.all", k)] = l
	}
	a.counts["rate2.vt_ns"] = 1e6
	a.counts["rate2.growing"] = 1
	rep := &report{}
	rep.e2e("vt_kops", "kops/s", 0, 0)
	deriveSvc(a, rep)
	m, _ := rep.value("vt_max_rate_kops")
	if want := svcRates[1] / 1e3; m.value != want {
		t.Errorf("vt_max_rate_kops %v, want %v (the growing top rate excluded)", m.value, want)
	}
}

// TestSvcAuditCatchesStaleRead checks the svc-mds-open read audit's
// version window: once overlapping writes have all finished, a read must
// see at least the first of them, and a page older than that fails.
func TestSvcAuditCatchesStaleRead(t *testing.T) {
	const file, page, tag = 3, 5, 42
	pages := svcPages{}
	pv := pages.get(file, page)
	buf := make([]byte, svcPage)
	stamped := func(ver uint64) bool {
		svcStamp(buf, file, page, ver, tag)
		return svcCheck(buf, file, page, pv.floor, pv.max, tag)
	}
	if !stamped(1) || stamped(2) {
		t.Fatalf("unwritten page: window %d..%d, want 1..1", pv.floor, pv.max)
	}
	// Versions 2 and 3 overlap: while either is in flight, 1..3 may be
	// read; after both finish the page holds 2 or 3.
	pv.issue(2)
	pv.issue(3)
	pv.done()
	if !stamped(1) || !stamped(3) {
		t.Fatalf("writes in flight: window %d..%d, want 1..3", pv.floor, pv.max)
	}
	pv.done()
	if stamped(1) {
		t.Errorf("version 1 read after writes 2 and 3 finished passed the audit")
	}
	if !stamped(2) || !stamped(3) || stamped(4) {
		t.Errorf("after writes 2 and 3: window %d..%d, want 2..3", pv.floor, pv.max)
	}
	// A lone write moves the floor to its own version.
	pv.issue(4)
	pv.done()
	if stamped(3) || !stamped(4) {
		t.Errorf("after write 4: window %d..%d, want 4..4", pv.floor, pv.max)
	}
	svcStamp(buf, file, page+1, 4, tag)
	if svcCheck(buf, file, page, pv.floor, pv.max, tag) {
		t.Errorf("another page's data passed the audit")
	}
}

// TestSpanChecker checks nesting and unattributed time on a hand-built set.
func TestSpanChecker(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "req", id: 1, req: 1, vtStart: 0, vtEnd: 100 * us},
		{name: "a", id: 2, parent: 1, req: 1, vtStart: 10 * us, vtEnd: 30 * us},
		{name: "b", id: 3, parent: 1, req: 1, vtStart: 20 * us, vtEnd: 50 * us}, // overlaps a
		{name: "c", id: 4, parent: 1, req: 1, vtStart: 60 * us, vtEnd: 70 * us},
		{name: "grandchild", id: 5, parent: 4, req: 1, vtStart: 61 * us, vtEnd: 62 * us},
		{name: "req2", id: 6, req: 2, vtStart: 200 * us, vtEnd: 210 * us},
		{name: "d", id: 7, parent: 6, req: 2, vtStart: 200 * us, vtEnd: 210 * us},
	}
	c := checkSpans(spans)
	if c.badNesting != 0 {
		t.Fatalf("bad nesting %d on a valid set", c.badNesting)
	}
	// req: children cover [10,50] and [60,70] = 50 of 100; req2 fully.
	if c.rootVT != 110*us || c.unattributed != 50*us {
		t.Fatalf("root %v unattributed %v, want 110µs and 50µs", c.rootVT, c.unattributed)
	}
	bad := append([]span(nil), spans...)
	bad = append(bad,
		span{name: "late", id: 8, parent: 1, req: 1, vtStart: 90 * us, vtEnd: 120 * us},
		span{name: "foreign", id: 9, parent: 1, req: 2, vtStart: 10 * us, vtEnd: 20 * us},
		span{name: "orphan", id: 10, parent: 99, req: 1, vtStart: 10 * us, vtEnd: 20 * us},
	)
	if c := checkSpans(bad); c.badNesting != 3 {
		t.Errorf("bad nesting %d, want 3", c.badNesting)
	}
}

// TestParseRawProfile charges samples to their innermost aeolia module,
// counting inlined frames.
func TestParseRawProfile(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Samples:
samples/count cpu/nanoseconds
          1   10000000: 1 2 3 
          3   30000000: 4 3 
          1   10000000: 5 
Locations
     1: 0x1 M=1 runtime.memmove /x.go:1:0 s=0
     2: 0x2 M=1 aeolia/internal/nvme.(*Device).readRaw /x.go:2:0 s=0
     3: 0x3 M=1 aeolia/internal/sim.(*Engine).Run /x.go:3:0 s=0
     4: 0x4 M=1 runtime.mallocgc /x.go:4:0 s=0
             aeolia/internal/raft.(*Node).step /x.go:5:0 s=0
     5: 0x5 M=1 main.main /x.go:6:0 s=0
Mappings
1: 0x400000/0x4ea000/0x0 /bin/x [FN]
`
	sh, err := parseRawProfile([]byte(raw), "cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	want := shares{"nvme": 0.2, "raft": 0.6, "other": 0.2}
	for k, v := range want {
		if d := sh[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", k, sh[k], v)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics the command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) printed", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not registered", w.Name)
		}
	}
}
