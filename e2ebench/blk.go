package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// blk-randrw: four application threads on four simulated cores, each a
// closed loop at queue depth 8 through aeodriver Submit/Wait in user
// interrupt mode, doing 4 KiB random reads (70%) and writes (30%) over its
// own 256 MiB slice of the default P5800X device model.
const (
	blkThreads      = 4
	blkQD           = 8
	blkBlockSize    = 4096
	blkSliceBlocks  = (256 << 20) / blkBlockSize
	blkOpsPerThread = 4096
	blkReadPct      = 70
)

func init() {
	register(&workload{name: "blk-randrw", vtRounds: 4, ringCap: 1 << 17, round: blkRound})
}

// blkSlot is one queue-depth slot of an application thread.
type blkSlot struct {
	req      *aeodriver.Request
	buf      []byte
	lba, ver uint64
	write    bool
	id       uint64
	t0       time.Duration
	span     int
}

// blkStamp writes the block's identity and version into buf; blkVerify
// checks a read against the last version written (0: never written, so
// the device returns zeros).
func blkStamp(buf []byte, lba, ver, tag uint64) {
	binary.LittleEndian.PutUint64(buf[0:], lba)
	binary.LittleEndian.PutUint64(buf[8:], ver)
	binary.LittleEndian.PutUint64(buf[16:], tag)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], lba^ver^tag)
}

func blkVerify(buf []byte, lba, ver, tag uint64) bool {
	if ver == 0 {
		var zero [24]byte
		return bytes.Equal(buf[:24], zero[:])
	}
	return binary.LittleEndian.Uint64(buf[0:]) == lba &&
		binary.LittleEndian.Uint64(buf[8:]) == ver &&
		binary.LittleEndian.Uint64(buf[16:]) == tag &&
		binary.LittleEndian.Uint64(buf[len(buf)-8:]) == lba^ver^tag
}

func blkRound(rc *roundCtx) (*roundResult, error) {
	ops := blkOpsPerThread
	if rc.small {
		ops = 256
	}
	m := machine.New(blkThreads, nvme.Config{BlockSize: blkBlockSize, NumBlocks: blkThreads * blkSliceBlocks})
	defer m.Eng.Shutdown()
	rc.attach(m.Eng)
	p, err := m.Launch("blk", aeokern.Partition{Start: 0, Blocks: m.Dev.NumBlocks(), Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		return nil, err
	}
	res := newRoundResult()
	threads := make([]*aeodriver.Thread, blkThreads)
	var vtStart, vtEnd time.Duration = -1, 0
	finished := 0
	for t := 0; t < blkThreads; t++ {
		t := t
		m.Eng.Spawn(fmt.Sprintf("app%d", t), m.Eng.Core(t), func(env *sim.Env) {
			th, err := p.Driver.CreateQP(env)
			if err != nil {
				res.fail("thread %d: create_qp: %v", t, err)
				return
			}
			threads[t] = th
			if vtStart < 0 || env.Now() < vtStart {
				vtStart = env.Now()
			}
			blkThread(env, rc, res, p.Driver, t, ops)
			if env.Now() > vtEnd {
				vtEnd = env.Now()
			}
			finished++
		})
	}
	eng0 := m.Eng.Stats()
	rc.clock.startMeasure()
	err = runUntil(m.Eng, time.Second, 20*time.Microsecond, func() bool {
		rc.clock.progress(res.ops)
		return finished == blkThreads
	})
	rc.clock.end()
	if err != nil {
		return nil, err
	}

	res.vt = vtEnd - vtStart
	engineCounts(res, m.Eng, eng0)
	deviceCounts(res, m.Dev, nvmeSnap{})
	for _, th := range threads {
		if th != nil {
			threadCounts(res, th)
		}
	}
	return res, nil
}

// blkThread runs one application thread's closed loop.
func blkThread(env *sim.Env, rc *roundCtx, res *roundResult, drv *aeodriver.Driver, t, ops int) {
	r := newRNG(rc.seed ^ uint64(t+1)*0xD1B54A32D192ED03)
	tag := rc.seed
	base := uint64(t) * blkSliceBlocks
	inflight := map[uint64]bool{}
	versions := map[uint64]uint64{}
	var nextVer uint64
	slots := make([]blkSlot, blkQD)
	for i := range slots {
		slots[i].buf = drv.AllocDMABuf(blkBlockSize)
	}
	issued := 0
	issue := func(s *blkSlot) {
		for {
			s.lba = base + uint64(r.intn(blkSliceBlocks))
			if !inflight[s.lba] {
				break
			}
		}
		inflight[s.lba] = true
		s.write = r.intn(100) >= blkReadPct
		op, name := nvme.OpRead, "blk.read"
		if s.write {
			nextVer++
			s.ver = nextVer
			blkStamp(s.buf, s.lba, s.ver, tag)
			op, name = nvme.OpWrite, "blk.write"
		} else {
			s.ver = versions[s.lba]
		}
		s.id = uint64(t)<<32 | uint64(issued)
		issued++
		s.t0 = env.Now()
		s.span = rc.spans.begin(name, 0, s.id, t, s.t0)
		c := rc.spans.begin("aeodriver.submit", s.span, s.id, t, s.t0)
		req, err := drv.Submit(env, op, s.lba, 1, s.buf, false)
		rc.spans.end(c, env.Now())
		if err != nil {
			res.fail("thread %d: submit lba %d: %v", t, s.lba, err)
			rc.spans.end(s.span, env.Now())
			s.req = nil
			delete(inflight, s.lba)
			return
		}
		s.req = req
	}
	for i := range slots {
		if issued < ops {
			issue(&slots[i])
		}
	}
	for done := 0; done < ops; done++ {
		s := &slots[done%blkQD]
		res.ops++
		if s.req != nil {
			c := rc.spans.begin("aeodriver.wait", s.span, s.id, t, env.Now())
			err := drv.Wait(env, s.req)
			rc.spans.end(c, env.Now())
			rc.spans.end(s.span, env.Now())
			lat := s.req.DoneAt - s.t0
			switch {
			case err != nil:
				res.fail("thread %d: lba %d: %v", t, s.lba, err)
			case s.write:
				versions[s.lba] = s.ver
				res.record("write", lat)
			case !blkVerify(s.buf, s.lba, s.ver, tag):
				res.fail("thread %d: read lba %d: stale or corrupt block (want version %d)", t, s.lba, s.ver)
			default:
				res.record("read", lat)
			}
			delete(inflight, s.lba)
		}
		if issued < ops {
			issue(s)
		}
	}
}
