package netsim

import (
	"testing"
	"time"

	"aeolia/internal/sim"
)

// pingPong wires a->b and b->a and runs a client that sends a burst of
// messages to b and waits for as many echoes, forever. The bursts keep
// several messages pending in each inbox. It returns the engine and the
// two links; their Sent counters count messages (a Msg is built at send).
func pingPong(burst int) (*sim.Engine, *Link, *Link) {
	eng := newEngine(2)
	f := New(eng, 1)
	cfg := Config{Latency: 2 * time.Microsecond}
	ab, ba := f.Connect("a", "b", cfg), f.Connect("b", "a", cfg)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	payload := make([]byte, 64)
	eng.Spawn("client", eng.Core(0), func(env *sim.Env) {
		for {
			for i := 0; i < burst; i++ {
				a.Send(env, "b", payload)
			}
			for i := 0; i < burst; i++ {
				a.Recv(env)
			}
		}
	})
	eng.Spawn("server", eng.Core(1), func(env *sim.Env) {
		for {
			b.Send(env, "a", b.Recv(env).Payload)
		}
	})
	return eng, ab, ba
}

// TestAllocsPingPongOneMsgPerMessage is the netsim allocation guard: in a
// steady-state ping-pong a message costs exactly one allocation, its Msg.
// The link's arrival and departure callbacks are bound once, the inbox
// keeps its backing array, and the arrival completion is re-armed in
// place, so none of them shows up here.
func TestAllocsPingPongOneMsgPerMessage(t *testing.T) {
	eng, ab, ba := pingPong(4)
	defer eng.Shutdown()
	until := eng.Run(time.Millisecond) // warm pools, heaps and inboxes
	var msgs uint64
	allocs := testing.AllocsPerRun(1, func() {
		before := ab.Sent + ba.Sent
		until += time.Millisecond
		eng.Run(until)
		msgs = ab.Sent + ba.Sent - before
	})
	if msgs < 100 {
		t.Fatalf("only %d messages in the measured run; the ping-pong is not cycling", msgs)
	}
	if uint64(allocs) != msgs {
		t.Fatalf("%v allocations for %d messages, want exactly one (the Msg) each", allocs, msgs)
	}
}

// BenchmarkNetsimPingPong measures one message of a steady-state
// ping-pong: send, wire, arrival event, inbox, wakeup and receive.
func BenchmarkNetsimPingPong(b *testing.B) {
	eng, ab, ba := pingPong(4)
	defer eng.Shutdown()
	until := eng.Run(time.Millisecond)
	start := ab.Sent + ba.Sent
	b.ReportAllocs()
	b.ResetTimer()
	for ab.Sent+ba.Sent-start < uint64(b.N) {
		until += 10 * time.Microsecond
		eng.Run(until)
	}
}
