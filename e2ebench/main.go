// Command e2ebench is the end-to-end benchmark of the Aeolia stack. It runs
// one workload (blk-randrw, fs-rw-large, svc-mds-open or repl-rf3) on the
// default datapath configuration, audits every output, and prints each
// metric by name and unit, ending with one JSON result line.
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run is a sequence of rounds. Each round builds a fresh simulated system
// from a seed (the set-up), runs a fixed amount of simulated work on it with
// the serial engine, and audits the result. Rounds 0..vtRounds-1 use
// distinct seeds derived from --seed and define every virtual-time (vt_*)
// metric and model count, so those repeat exactly for one seed. Later
// rounds replay the same inputs until --seconds of host time have passed;
// each must reproduce its first run's digest, and every round contributes
// one sample to the host-time medians. See README.md for the workloads,
// clocks and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/trace"
	wl "aeolia/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// small shrinks every round to its smallest size (self-tests).
	small bool
	// out receives the span file and the profiles of a traced run.
	out string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fl.Uint64Var(&o.seed, "seed", 1, "input seed")
	fl.IntVar(&o.seconds, "seconds", 10, "host seconds to measure for")
	fl.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	fl.StringVar(&o.out, "out", ".bench_out", "directory for span and profile files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.print(stdout, o.trace)
	if !rep.correct {
		fmt.Fprintf(stderr, "e2ebench: %s: audit failed: %s\n", o.workload, rep.firstFailure)
		return 1
	}
	return 0
}

// workload is one benchmark workload.
type workload struct {
	name string
	// vtRounds is how many distinct-seed rounds define the virtual-time
	// metrics; together they give every op type at least 1000 samples.
	vtRounds int
	// ringCap is the per-core trace ring capacity of a traced round,
	// sized so one round drops no events.
	ringCap int
	// round builds a fresh system from rc.seed, runs it and audits it.
	round func(rc *roundCtx) (*roundResult, error)
	// derive adds the workload's own virtual-time metrics.
	derive func(a *aggregate, r *report)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// roundCtx is what a round receives from the harness.
type roundCtx struct {
	seed  uint64
	small bool
	// ringCap is the per-core trace ring capacity; 0 in untraced rounds.
	ringCap int
	// tr is the tracer attach installed; spans is non-nil only in traced
	// rounds.
	tr    *trace.Tracer
	spans *spanLog
	clock hostClock
	// events holds the trace drained so far; lost counts events the rings
	// overwrote before a drain.
	events []trace.Event
	lost   uint64
}

// attach installs a tracer sized to the engine's cores in a traced round.
func (rc *roundCtx) attach(eng *sim.Engine) {
	if rc.ringCap > 0 {
		rc.tr = trace.New(len(eng.Cores()), rc.ringCap)
		eng.Tracer = rc.tr
	}
}

// drainTrace moves the tracer's events into rc.events and empties its
// rings, so a long round needs rings only as large as the events emitted
// between two drains. Sequence numbers continue across drains, and so do
// copy-chain ids: Tracer.Reset restarts both, so the chain counter is
// advanced past its last value again.
func (rc *roundCtx) drainTrace() {
	if rc.tr == nil {
		return
	}
	base := uint64(0)
	if n := len(rc.events); n > 0 {
		base = rc.events[n-1].Seq
	}
	rc.lost += rc.tr.Dropped()
	for _, e := range rc.tr.Events() {
		e.Seq += base
		rc.events = append(rc.events, e)
	}
	last := rc.tr.NextChain()
	rc.tr.Reset()
	for rc.tr.NextChain() < last {
	}
}

// drainIfHalfFull drains once the rings hold half their capacity: no ring
// can then overflow before the next check as long as fewer than half a
// ring of events are emitted between checks.
func (rc *roundCtx) drainIfHalfFull() {
	if rc.tr != nil && rc.tr.Len() >= uint64(rc.ringCap/2) {
		rc.drainTrace()
	}
}

// hostSliceOps is the size of one host-time slice in completed operations.
const hostSliceOps = 256

// hostClock splits a round's host time into set-up and measured work, and
// the measured work into slices of hostSliceOps completed operations.
type hostClock struct {
	start, measured time.Time
	mallocs         uint64
	setup, run      time.Duration
	allocs          uint64
	// slices holds each full slice's operations per host second.
	slices   []float64
	lastMark time.Time
	lastDone int
}

func (h *hostClock) begin() { h.start = time.Now() }

// startMeasure ends the set-up phase: the workload calls it once its
// system is built and just before it drives the measured work.
func (h *hostClock) startMeasure() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mallocs = ms.Mallocs
	h.measured = time.Now()
	h.setup = h.measured.Sub(h.start)
	h.lastMark, h.lastDone = h.measured, 0
}

// progress closes a slice once done, the round's completed operations so
// far, has grown by hostSliceOps since the last one. Workloads call it
// between engine slices.
func (h *hostClock) progress(done int) {
	if h.measured.IsZero() || done-h.lastDone < hostSliceOps {
		return
	}
	now := time.Now()
	h.slices = append(h.slices, float64(done-h.lastDone)/now.Sub(h.lastMark).Seconds())
	h.lastMark, h.lastDone = now, done
}

func (h *hostClock) end() {
	h.run = time.Since(h.measured)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.allocs = ms.Mallocs - h.mallocs
}

// roundResult is one round's outcome. Everything but the host clock is
// a pure function of the round's seed.
type roundResult struct {
	// ops counts operations attempted in the measured phase; failed those
	// that failed, were refused or did not verify.
	ops, failed int
	// failure describes the first failed op or audit.
	failure string
	// vt is the virtual time the measured phase took.
	vt time.Duration
	// lat holds virtual latencies by op type ("read", "write", "meta",
	// and workload-specific keys) and, in traced rounds, by span name.
	lat map[string]*wl.LatencyRecorder
	// counts are model counters (deterministic). Keys starting with "tr."
	// come from the trace and exist only in traced rounds.
	counts map[string]float64
	clock  hostClock
	ref    time.Duration
}

func newRoundResult() *roundResult {
	return &roundResult{lat: map[string]*wl.LatencyRecorder{}, counts: map[string]float64{}}
}

func (r *roundResult) record(key string, d time.Duration) {
	l := r.lat[key]
	if l == nil {
		l = &wl.LatencyRecorder{}
		r.lat[key] = l
	}
	l.Record(d)
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

// digest hashes the round's deterministic outputs: op counts, virtual
// time, every latency sample and every untraced model count.
func (r *roundResult) digest() [32]byte {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.ops))
	put(uint64(r.failed))
	put(uint64(r.vt))
	for _, k := range sortedKeys(r.lat) {
		if strings.Contains(k, ":") {
			continue // span and trace-stage timings exist only when traced
		}
		h.Write([]byte(k))
		l := r.lat[k]
		put(uint64(l.Count()))
		for _, p := range []float64{0, 25, 50, 75, 90, 99, 99.9, 100} {
			put(uint64(l.Percentile(p)))
		}
	}
	for _, k := range sortedKeys(r.counts) {
		if strings.HasPrefix(k, "tr.") {
			continue
		}
		h.Write([]byte(k))
		put(math.Float64bits(r.counts[k]))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// aggregate merges the vtRounds rounds that define the model's results.
type aggregate struct {
	rounds      int
	ops, failed int
	vt          time.Duration
	lat         map[string]*wl.LatencyRecorder
	counts      map[string]float64
	digest      [32]byte
}

func newAggregate() *aggregate {
	return &aggregate{lat: map[string]*wl.LatencyRecorder{}, counts: map[string]float64{}}
}

func (a *aggregate) add(r *roundResult) {
	a.rounds++
	a.ops += r.ops
	a.failed += r.failed
	a.vt += r.vt
	for k, l := range r.lat {
		if a.lat[k] == nil {
			a.lat[k] = &wl.LatencyRecorder{}
		}
		a.lat[k].Merge(l)
	}
	for k, v := range r.counts {
		a.counts[k] += v
	}
	d := r.digest()
	a.digest = sha256.Sum256(append(a.digest[:], d[:]...))
}

// kops returns the virtual-time throughput in thousands of ops per second.
func (a *aggregate) kops() float64 { return float64(a.ops) / a.vt.Seconds() / 1e3 }

// get returns a latency recorder (empty if absent).
func (a *aggregate) get(key string) *wl.LatencyRecorder {
	if l := a.lat[key]; l != nil {
		return l
	}
	return &wl.LatencyRecorder{}
}

// roundSeed derives round r's input seed from the run seed.
func roundSeed(seed uint64, r int) uint64 {
	return splitmix64(seed*0x9E3779B97F4A7C15 + uint64(r) + 1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a small deterministic generator (splitmix64 stream).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return splitmix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// refNominal is the host time of one reference pass (refLoop) on the
// nominal host that host-time metrics are scaled to.
const refNominal = 10 * time.Millisecond

// hostRounds collects the per-round host samples. Times are scaled by
// refNominal over the reference passes timed around the round, so a host
// that runs everything slower for a while (other tenants on a shared
// machine) moves the raw figures but not the scaled ones.
type hostRounds struct {
	opsPerSec, allocsPerOp, setup, nsPerEvent []float64
	rawOpsPerSec, rawSetup, ref               []float64
}

func (h *hostRounds) add(r *roundResult) {
	scale := float64(r.ref) / float64(refNominal) // >1 on a slower host
	ops := float64(r.ops) / r.clock.run.Seconds()
	h.rawOpsPerSec = append(h.rawOpsPerSec, ops)
	if len(r.clock.slices) == 0 {
		h.opsPerSec = append(h.opsPerSec, ops*scale)
	}
	for _, s := range r.clock.slices {
		h.opsPerSec = append(h.opsPerSec, s*scale)
	}
	h.rawSetup = append(h.rawSetup, r.clock.setup.Seconds())
	h.setup = append(h.setup, r.clock.setup.Seconds()/scale)
	h.ref = append(h.ref, float64(r.ref)/float64(time.Millisecond))
	h.allocsPerOp = append(h.allocsPerOp, float64(r.clock.allocs)/float64(r.ops))
	if ev := r.counts["sim.events"]; ev > 0 {
		h.nsPerEvent = append(h.nsPerEvent, float64(r.clock.run.Nanoseconds())/ev/scale)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runRound runs one round with the harness's timing and GC discipline.
// In a traced round it also audits the engine trace and the spans.
func runRound(w *workload, o options, r int, traced bool) (*roundResult, *spanLog, error) {
	runtime.GC()
	rc := &roundCtx{seed: roundSeed(o.seed, r), small: o.small}
	if traced {
		rc.ringCap = w.ringCap
		rc.spans = &spanLog{}
	}
	ref := refLoop()
	rc.clock.begin()
	res, err := w.round(rc)
	if err != nil {
		return nil, nil, fmt.Errorf("round %d: %w", r, err)
	}
	res.clock = rc.clock
	// The reference pass brackets the round, tracking drift during it.
	res.ref = (ref + refLoop()) / 2
	if res.ops == 0 {
		return nil, nil, fmt.Errorf("round %d: no operations attempted", r)
	}
	if traced {
		if rc.tr == nil {
			return nil, nil, fmt.Errorf("round %d: workload attached no tracer", r)
		}
		rc.drainTrace()
		analyzeTrace(rc.events, rc.lost, res)
		rc.spans.check(res)
		rc.spans.flushDurations(res)
	}
	return res, rc.spans, nil
}

// execute runs the whole benchmark for one workload and builds the report.
func execute(w *workload, o options) (*report, error) {
	vtRounds := w.vtRounds
	if o.small {
		vtRounds = 2
	}
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		// Half the time untraced with no profiler, for the host figures
		// the traced ones are compared with; then the profiled and the
		// traced rounds.
		budget /= 2
	}

	agg := newAggregate()
	var host hostRounds
	digests := make([][32]byte, vtRounds)
	failures := ""
	nonRepeat := 0
	start := time.Now()
	for r := 0; r < vtRounds || time.Since(start) < budget; r++ {
		res, _, err := runRound(w, o, r%vtRounds, false)
		if err != nil {
			return nil, err
		}
		if failures == "" {
			failures = res.failure
		}
		host.add(res)
		if r < vtRounds {
			agg.add(res)
			digests[r] = res.digest()
		} else if res.digest() != digests[r%vtRounds] {
			nonRepeat++
			if failures == "" {
				failures = fmt.Sprintf("round %d did not reproduce round %d", r, r%vtRounds)
			}
		}
	}
	rep := &report{workload: w.name, attempted: agg.ops, failed: agg.failed + nonRepeat}
	rep.hostEndToEnd(&host)
	rep.vtEndToEnd(agg)
	if w.derive != nil {
		w.derive(agg, rep)
	}
	rep.digest = fmt.Sprintf("%x", agg.digest[:8])
	rep.firstFailure = failures

	if o.trace {
		shares, err := profiledRounds(w, o, vtRounds, digests)
		if err != nil {
			return nil, err
		}
		rep.shares = shares
		if err := tracedRounds(w, o, vtRounds, agg, &host, rep); err != nil {
			return nil, err
		}
	}
	rep.correct = rep.failed == 0
	return rep, nil
}

// profiledRounds replays the vtRounds rounds untraced under the CPU and
// heap profilers and returns each module's share of both profiles. Each
// round must still reproduce its digest.
func profiledRounds(w *workload, o options, vtRounds int, digests [][32]byte) (map[string]shares, error) {
	prof, err := startProfiles(o.out, o.workload)
	if err != nil {
		return nil, err
	}
	for r := 0; r < vtRounds; r++ {
		res, _, err := runRound(w, o, r, false)
		if err == nil && res.digest() != digests[r] {
			err = fmt.Errorf("profiled round %d did not reproduce its digest", r)
		}
		if err != nil {
			_, _ = prof.stop() // the round's error is the one to report
			return nil, err
		}
	}
	return prof.stop()
}

// tracedRounds replays the vtRounds rounds with the engine tracer and the
// benchmark's spans on, audits the trace, and fills the per-layer metrics.
func tracedRounds(w *workload, o options, vtRounds int, untraced *aggregate, uhost *hostRounds, rep *report) error {
	tagg := newAggregate()
	var host hostRounds
	for r := 0; r < vtRounds; r++ {
		res, spans, err := runRound(w, o, r, true)
		if err != nil {
			return err
		}
		host.add(res)
		tagg.add(res)
		if r == 0 {
			if err := writeSpans(o.out, o.workload, o.seed, spans.kept); err != nil {
				return err
			}
		}
	}
	fail := func(msg string) {
		if rep.firstFailure == "" {
			rep.firstFailure = msg
		}
	}
	if tagg.digest != untraced.digest {
		rep.failed++
		fail("traced rounds changed the model's results")
	}
	switch c := tagg.counts; {
	case c["tr.dropped"] > 0:
		fail(fmt.Sprintf("trace rings dropped %.0f events", c["tr.dropped"]))
	case c["tr.violations"] > 0:
		fail(fmt.Sprintf("%.0f trace violations", c["tr.violations"]))
	case c["tr.spans.bad_nesting"] > 0:
		fail(fmt.Sprintf("%.0f spans outside their parent", c["tr.spans.bad_nesting"]))
	}
	rep.layers(tagg, median(uhost.opsPerSec), median(host.opsPerSec), median(uhost.nsPerEvent))
	rep.failed += int(tagg.counts["tr.violations"] + tagg.counts["tr.dropped"] + tagg.counts["tr.spans.bad_nesting"])
	return nil
}

// metric is one printed value.
type metric struct {
	name, unit string
	value      float64
	// n is the sample count behind a latency (0 when not a latency).
	n int
}

// report is everything a run prints.
type report struct {
	workload          string
	attempted, failed int
	correct           bool
	firstFailure      string
	digest            string
	endToEnd, perLyr  []metric
	shares            map[string]shares
}

func (rep *report) add(dst *[]metric, name, unit string, v float64, n int) {
	*dst = append(*dst, metric{name: name, unit: unit, value: v, n: n})
}

func (rep *report) e2e(name, unit string, v float64, n int) { rep.add(&rep.endToEnd, name, unit, v, n) }
func (rep *report) lyr(name, unit string, v float64, n int) { rep.add(&rep.perLyr, name, unit, v, n) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latPair adds the p50 and p99 of key's latencies under prefix.
func (rep *report) latPair(to func(string, string, float64, int), prefix string, a *aggregate, key string) {
	n := a.get(key).Count()
	to(prefix+"_p50_us", "us", us(a.get(key).Percentile(50)), n)
	to(prefix+"_p99_us", "us", us(a.get(key).Percentile(99)), n)
}

func (rep *report) hostEndToEnd(h *hostRounds) {
	var ru syscall.Rusage
	maxRSS := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		maxRSS = float64(ru.Maxrss) / 1024
	}
	rep.e2e("setup_s", "s", median(h.setup), len(h.setup))
	rep.e2e("host_ops_per_s", "1/s", median(h.opsPerSec), len(h.opsPerSec))
	rep.e2e("host_allocs_per_op", "count", median(h.allocsPerOp), len(h.allocsPerOp))
	rep.e2e("host_maxrss_mb", "MB", maxRSS, 0)
	rep.e2e("host_raw_ops_per_s", "1/s", median(h.rawOpsPerSec), len(h.rawOpsPerSec))
	rep.e2e("host_raw_setup_s", "s", median(h.rawSetup), len(h.rawSetup))
	rep.e2e("host_ref_ms", "ms", median(h.ref), len(h.ref))
}

func (rep *report) vtEndToEnd(a *aggregate) {
	rep.e2e("vt_kops", "kops/s", a.kops(), 0)
	rep.latPair(rep.e2e, "vt_read", a, "read")
	rep.latPair(rep.e2e, "vt_write", a, "write")
	rep.e2e("fail_ratio", "ratio", float64(a.failed)/float64(a.ops), 0)
}

// set replaces the value of an already added end-to-end metric.
func (rep *report) set(name string, v float64) {
	for i := range rep.endToEnd {
		if rep.endToEnd[i].name == name {
			rep.endToEnd[i].value = v
		}
	}
}

func (rep *report) value(name string) (metric, bool) {
	for _, m := range append(append([]metric(nil), rep.endToEnd...), rep.perLyr...) {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable table and the JSON result line.
func (rep *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s\n", rep.workload)
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Fprintf(w, "%-40s %14.6g %-8s%s\n", m.name, m.value, m.unit, n)
		}
	}
	section("end to end", rep.endToEnd)
	if traced {
		section("per layer", rep.perLyr)
	}
	fmt.Fprintf(w, "digest %s\n", rep.digest)

	names := endToEndMetrics
	if traced {
		names = perLayerMetrics
	}
	out := map[string]any{}
	for _, n := range names {
		m, _ := rep.value(n.name)
		out[n.name] = map[string]any{"value": m.value, "unit": n.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	fmt.Fprintf(w, "%s\n", line)
}
