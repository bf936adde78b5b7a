package netsim

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/faultinject"
	"aeolia/internal/sim"
)

// fifoPhase is one burst of the FIFO reference test: the sender transmits
// a burst, then — while the whole burst is still in flight — applies the
// phase's partition and endpoint state, which is therefore the state every
// message of the burst meets on arrival.
type fifoPhase struct {
	down, closed bool
}

// fifoTx is one transmission in the reference model.
type fifoTx struct {
	id     uint16
	dup    bool
	phase  int
	dropFI bool // the fault plan's drop verdict
}

// TestLinkFIFOReferenceModel drives one jittered link through fault-plan
// drops and duplicates, SetDown and Close/Reopen with messages in flight,
// and checks delivery order and the link and endpoint books against a
// reference model built from the plan's firing log: transmissions in send
// order (each duplicate right after its original), of which exactly those
// neither dropped by the plan nor arriving on a down link or a closed
// endpoint are delivered, in that order.
func TestLinkFIFOReferenceModel(t *testing.T) {
	phases := []fifoPhase{
		{},                         // plan faults only
		{down: true},               // partition hits mid-flight: burst lost
		{},                         // sent while down, healed mid-flight: delivered
		{closed: true},             // receiver closes mid-flight
		{closed: true, down: true}, // both: the partition wins the books
		{},                         // reopened mid-flight: delivered
		{},                         // steady state again
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkFIFOModel(t, seed, phases)
		})
	}
}

func checkFIFOModel(t *testing.T, seed uint64, phases []fifoPhase) {
	const (
		burst   = 16
		latency = 20 * time.Microsecond
		jitter  = 15 * time.Microsecond
	)
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, seed)
	l := f.Connect("a", "b", Config{Latency: latency, Jitter: jitter, QueueDepth: 4 * burst})
	plan := faultinject.NewPlan(seed)
	plan.On("net:drop:a->b", faultinject.WithProb(0.2, 0))
	plan.On("net:dup:a->b", faultinject.WithProb(0.25, 0))
	f.UsePlan(plan)
	a, b := f.Endpoint("a"), f.Endpoint("b")

	type got struct {
		id  uint16
		dup bool
	}
	var recv []got
	var lastAt time.Duration
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for {
			m := b.Recv(env)
			if m.DeliveredAt < lastAt {
				t.Errorf("delivery time regressed: %v < %v", m.DeliveredAt, lastAt)
			}
			lastAt = m.DeliveredAt
			recv = append(recv, got{binary.LittleEndian.Uint16(m.Payload), m.Dup})
		}
	})
	var sendPhase []int // phase of each accepted send, in send order
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for p, ph := range phases {
			for i := 0; i < burst; i++ {
				payload := binary.LittleEndian.AppendUint16(nil, uint16(len(sendPhase)))
				if err := a.Send(env, "b", payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sendPhase = append(sendPhase, p)
			}
			// The burst left in less than the latency: all of it is in
			// flight while the state changes.
			l.SetDown(ph.down)
			if ph.closed && !b.Closed() {
				b.Close()
			} else if !ph.closed && b.Closed() {
				b.Reopen()
			}
			env.Sleep(latency + jitter + 50*time.Microsecond)
		}
	})
	eng.Run(0)

	// Rebuild the transmissions from the plan's firing log.
	dupAt, dropAt := map[uint64]bool{}, map[uint64]bool{}
	for _, ev := range plan.Log() {
		switch ev.Site {
		case "net:dup:a->b":
			dupAt[ev.Occurrence] = true
		case "net:drop:a->b":
			dropAt[ev.Occurrence] = true
		}
	}
	var txs []fifoTx
	for k, p := range sendPhase {
		txs = append(txs, fifoTx{id: uint16(k), phase: p})
		if dupAt[uint64(k+1)] {
			txs = append(txs, fifoTx{id: uint16(k), dup: true, phase: p})
		}
	}
	var want []got
	var dropped, droppedClosed uint64
	for n := range txs {
		tx := &txs[n]
		tx.dropFI = dropAt[uint64(n+1)]
		ph := phases[tx.phase]
		switch {
		case tx.dropFI || ph.down:
			dropped++
		case ph.closed:
			dropped++
			droppedClosed++
		default:
			want = append(want, got{tx.id, tx.dup})
		}
	}

	if len(dupAt) == 0 || len(dropAt) == 0 {
		t.Fatalf("plan fired %d dups and %d drops; the test needs both", len(dupAt), len(dropAt))
	}
	if len(recv) != len(want) {
		t.Fatalf("received %d messages, model expects %d", len(recv), len(want))
	}
	for i := range want {
		if recv[i] != want[i] {
			t.Fatalf("delivery %d = %+v, model expects %+v", i, recv[i], want[i])
		}
	}
	if l.Sent != uint64(len(txs)) || l.Duped != uint64(len(dupAt)) {
		t.Fatalf("Sent=%d Duped=%d, model %d/%d", l.Sent, l.Duped, len(txs), len(dupAt))
	}
	if l.Delivered != uint64(len(want)) || b.Delivered != uint64(len(want)) {
		t.Fatalf("Delivered link=%d endpoint=%d, model %d", l.Delivered, b.Delivered, len(want))
	}
	if l.Dropped != dropped || b.DroppedClosed != droppedClosed {
		t.Fatalf("Dropped=%d DroppedClosed=%d, model %d/%d", l.Dropped, b.DroppedClosed, dropped, droppedClosed)
	}
	if l.Sent != l.Delivered+l.Dropped || l.Queued() != 0 {
		t.Fatalf("books do not balance: sent=%d delivered=%d dropped=%d queued=%d",
			l.Sent, l.Delivered, l.Dropped, l.Queued())
	}
}
