package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aeolia/internal/trace"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Spans of one request share req; a root span has parent 0.
type span struct {
	name           string
	id, parent     int
	req            uint64
	tid            int
	vtStart, vtEnd time.Duration
	// hostStart/hostEnd are host nanoseconds since the log's first span.
	hostStart, hostEnd int64
}

// maxKeptSpans bounds the span file of one run.
const maxKeptSpans = 200000

// spanLog keeps a traced round's spans in memory. A nil *spanLog records
// nothing, so untraced rounds pay one nil check per call.
type spanLog struct {
	spans []span
	kept  []span
	base  time.Time
}

func (l *spanLog) hostNow() int64 {
	if l.base.IsZero() {
		l.base = time.Now()
	}
	return int64(time.Since(l.base))
}

// begin opens a span at virtual time vt and returns its id (0 when nil).
func (l *spanLog) begin(name string, parent int, req uint64, tid int, vt time.Duration) int {
	if l == nil {
		return 0
	}
	h := l.hostNow()
	l.spans = append(l.spans, span{name: name, id: len(l.spans) + 1, parent: parent, req: req, tid: tid,
		vtStart: vt, vtEnd: vt, hostStart: h, hostEnd: h})
	return len(l.spans)
}

// end closes span id at virtual time vt.
func (l *spanLog) end(id int, vt time.Duration) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.vtEnd = vt
	s.hostEnd = l.hostNow()
}

// add records a span whose bounds are already known (for example the
// generator wait, from a request's due time to its start).
func (l *spanLog) add(name string, parent int, req uint64, tid int, vtStart, vtEnd time.Duration) {
	if id := l.begin(name, parent, req, tid, vtStart); id != 0 {
		l.end(id, vtEnd)
	}
}

// spanCheck is the outcome of checking a span set.
type spanCheck struct {
	badNesting int
	// rootVT is the summed virtual duration of root spans; unattributed
	// the part of it that no direct child span covers.
	rootVT, unattributed time.Duration
}

// checkSpans verifies that every child lies inside its parent (same
// request, within its virtual bounds) and measures how much of each root
// span's virtual time its children leave uncovered.
func checkSpans(spans []span) spanCheck {
	var c spanCheck
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	children := map[int][][2]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.vtEnd < s.vtStart || s.hostEnd < s.hostStart {
			c.badNesting++
			continue
		}
		if s.parent == 0 {
			continue
		}
		p := byID[s.parent]
		if p == nil || p.req != s.req || s.vtStart < p.vtStart || s.vtEnd > p.vtEnd {
			c.badNesting++
			continue
		}
		children[s.parent] = append(children[s.parent], [2]time.Duration{s.vtStart, s.vtEnd})
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 || s.vtEnd < s.vtStart {
			continue
		}
		dur := s.vtEnd - s.vtStart
		c.rootVT += dur
		c.unattributed += dur - covered(children[s.id])
	}
	return c
}

// covered returns the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// check folds the span audit into a traced round's counts.
func (l *spanLog) check(res *roundResult) {
	c := checkSpans(l.spans)
	res.counts["tr.spans"] += float64(len(l.spans))
	res.counts["tr.spans.bad_nesting"] += float64(c.badNesting)
	res.counts["tr.spans.root_ns"] += float64(c.rootVT)
	res.counts["tr.spans.unattributed_ns"] += float64(c.unattributed)
}

// flushDurations records every span's virtual duration by name and keeps
// the spans for the span file.
func (l *spanLog) flushDurations(res *roundResult) {
	for _, s := range l.spans {
		res.record("span:"+s.name, s.vtEnd-s.vtStart)
	}
	n := len(l.spans)
	if n > maxKeptSpans {
		n = maxKeptSpans
	}
	l.kept = l.spans[:n]
}

// writeSpans writes spans as Chrome/Perfetto trace JSON: one complete
// ("X") event per span on the virtual-time axis, with the host-time
// bounds, parent and request id as arguments.
func writeSpans(dir, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		b, err := json.Marshal(event{Name: s.name, Ph: "X", Ts: us(s.vtStart), Dur: us(s.vtEnd - s.vtStart),
			Pid: 1, Tid: s.tid, Args: map[string]any{
				"id": s.id, "parent": s.parent, "req": s.req,
				"host_start_us": float64(s.hostStart) / 1e3, "host_dur_us": float64(s.hostEnd-s.hostStart) / 1e3,
			}})
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// analyzeTrace replays a traced round's engine trace and folds the
// analyzer's verdicts, event counts and stage latencies into res.
func analyzeTrace(evs []trace.Event, lost uint64, res *roundResult) {
	a := trace.Analyze(evs)
	c := res.counts
	c["tr.events"] += float64(len(evs)) + float64(lost)
	c["tr.dropped"] += float64(lost)
	c["tr.violations"] += float64(len(a.Violations))
	if len(a.Violations) > 0 && res.failure == "" {
		res.failure = "trace violation: " + a.Violations[0].String()
	}
	for _, e := range evs {
		switch e.Type {
		case trace.SQEPrep:
			c["tr.sqe_prep"]++
		case trace.DoorbellWrite:
			c["tr.doorbells"]++
		case trace.CQEPost:
			c["tr.cqe_post"]++
		case trace.IRQRaise:
			c["tr.irq_raise"]++
		case trace.UPIDPost:
			c["tr.upid_post"]++
		case trace.UINTRDeliver:
			if e.Aux > 0 {
				c["tr.uintr_deliver"]++
			}
		case trace.HandlerEnter:
			c["tr.handler_enter"]++
			if e.Aux == trace.KernelPathAux {
				c["tr.handler_kernel"]++
			}
		case trace.NetSend:
			c["tr.net_msgs"]++
			c["tr.net_bytes"] += float64(e.Aux)
		}
	}
	chains, copies, _ := a.CopyStats()
	c["tr.copy_chains"] += float64(chains)
	c["tr.copies"] += float64(copies)
	for _, ch := range a.Chains {
		if !ch.Complete() {
			continue
		}
		res.record("stage:prep_doorbell", ch.Doorbell-ch.Prep)
		res.record("stage:doorbell_device", ch.DeviceStart-ch.Doorbell)
		res.record("stage:device", ch.DeviceDone-ch.DeviceStart)
		res.record("stage:post_consume", ch.Consume-ch.Post)
		res.record("stage:end_to_end", ch.Consume-ch.Prep)
	}
	for _, ch := range a.SvcChains {
		if ch.Shed || !ch.Complete() {
			continue
		}
		res.record("stage:svc_recv_admit", ch.Admit-ch.Recv)
		res.record("stage:svc_admit_fsop", ch.FSOp-ch.Admit)
		res.record("stage:svc_fsop_reply", ch.Reply-ch.FSOp)
		res.record("stage:svc_end_to_end", ch.Reply-ch.Recv)
	}
}
