package main

import "time"

var refSink int

// refLoop runs a fixed pass of host work shaped like the simulator's own:
// goroutine handoffs over unbuffered channels, small allocations and map
// updates. Its host time, taken before every round, measures how fast the
// host runs that kind of work right now; host-time metrics are scaled by
// it (see hostRounds). The benchmark's code is fixed, so no change to the
// program can move it.
func refLoop() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	m := map[int][]byte{}
	x := 0
	for i := 0; i < 20000; i++ {
		ping <- i
		x += <-pong
		m[i%512] = make([]byte, 64+i%64)
		if i%3 == 0 {
			delete(m, (i*7)%512)
		}
	}
	close(ping)
	<-pong
	refSink = x + len(m)
	return time.Since(t0)
}
