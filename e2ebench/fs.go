package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
)

// fs-rw-large: four threads on four simulated cores call the vfs surface
// of AeoFS. The page cache is bounded to a quarter of a zipf-skewed file
// set, so CLOCK eviction, read-ahead, write-back and the journal are busy
// with device misses underneath.
const (
	fsThreads        = 4
	fsFilesPerThread = 16
	fsFileBytes      = 1 << 20
	fsPage           = aeofs.BlockSize
	fsExtent         = 64 << 10 // scan size and zipf unit
	fsCacheBytes     = 16 << 20 // a quarter of the 64 MiB file set
	fsReadahead      = 32       // pages
	fsZipfS          = 0.9
	fsFsyncEvery     = 16
	fsMetaLive       = 32 // cap on each thread's live metadata files
	fsOpsPerThread   = 1280
	fsDeviceBlocks   = 1 << 15 // 128 MiB: file set, journal and metadata
)

// Op mix in percent: 4 KiB pread, 4 KiB pwrite, 64 KiB scan, metadata.
const (
	fsPctRead  = 65
	fsPctWrite = 20
	fsPctScan  = 10
)

func init() {
	register(&workload{name: "fs-rw-large", vtRounds: 4, ringCap: 1 << 18, round: fsRound, derive: deriveMeta})
}

// deriveMeta adds the metadata latencies of workloads that have them.
func deriveMeta(a *aggregate, rep *report) {
	rep.latPair(rep.e2e, "vt_meta", a, "meta")
}

// pageStamp writes a page's identity and version; pageVerify checks it.
func pageStamp(p []byte, file, page, ver, tag uint64) {
	binary.LittleEndian.PutUint64(p[0:], file)
	binary.LittleEndian.PutUint64(p[8:], page)
	binary.LittleEndian.PutUint64(p[16:], ver)
	binary.LittleEndian.PutUint64(p[24:], tag)
	binary.LittleEndian.PutUint64(p[len(p)-8:], file^page^ver^tag)
}

func pageVerify(p []byte, file, page, ver, tag uint64) bool {
	le := binary.LittleEndian
	return le.Uint64(p[0:]) == file && le.Uint64(p[8:]) == page && le.Uint64(p[16:]) == ver &&
		le.Uint64(p[24:]) == tag && le.Uint64(p[len(p)-8:]) == file^page^ver^tag
}

// zipfCDF returns the cumulative distribution of a zipf(s) law over n
// ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func zipfDraw(r *rng, cdf []float64) int {
	return sort.SearchFloat64s(cdf, r.float())
}

func fsPath(t, f int) string { return fmt.Sprintf("/t%d/f%d", t, f) }

func fsRound(rc *roundCtx) (*roundResult, error) {
	ops := fsOpsPerThread
	if rc.small {
		ops = 200
	}
	m := machine.New(fsThreads+1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: fsDeviceBlocks})
	defer m.Eng.Shutdown()
	rc.attach(m.Eng)
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
		Journals: 8,
		Cache:    aeofs.CacheConfig{CacheBytes: fsCacheBytes, MaxReadahead: fsReadahead, FlusherCore: fsThreads},
	})
	if err != nil {
		return nil, err
	}
	res := newRoundResult()
	tag := rc.seed

	// Set-up: every thread writes its files (version 1 on every page),
	// then the cache is dropped so the measured phase starts cold.
	for t := 0; t < fsThreads; t++ {
		t := t
		m.Eng.Spawn(fmt.Sprintf("fill%d", t), m.Eng.Core(t), func(env *sim.Env) {
			if err := fsFill(env, fi, t, tag); err != nil {
				res.fail("fill %d: %v", t, err)
			}
		})
	}
	m.Run(0)
	m.Eng.Spawn("drop", m.Eng.Core(0), func(env *sim.Env) {
		if _, err := fi.AeoFS.Driver().CreateQP(env); err != nil {
			res.fail("drop: %v", err)
			return
		}
		if err := fi.AeoFS.DropCaches(env); err != nil {
			res.fail("drop caches: %v", err)
		}
	})
	m.Run(0)
	if res.failed > 0 {
		return nil, fmt.Errorf("fs set-up: %s", res.failure)
	}

	eng0, dev0, cache0 := m.Eng.Stats(), snapDevice(m.Dev), fi.AeoFS.CacheStats()
	threads := make([]*aeodriver.Thread, fsThreads)
	var vtStart, vtEnd time.Duration = -1, 0
	finished := 0
	for t := 0; t < fsThreads; t++ {
		t := t
		m.Eng.Spawn(fmt.Sprintf("app%d", t), m.Eng.Core(t), func(env *sim.Env) {
			defer func() { finished++ }()
			th, err := fi.AeoFS.Driver().CreateQP(env)
			if err != nil {
				res.fail("thread %d: create_qp: %v", t, err)
				return
			}
			threads[t] = th
			if vtStart < 0 || env.Now() < vtStart {
				vtStart = env.Now()
			}
			(&fsThread{env: env, rc: rc, res: res, fs: fi.FS, t: t, tag: tag}).run(ops)
			if env.Now() > vtEnd {
				vtEnd = env.Now()
			}
		})
	}
	rc.clock.startMeasure()
	err = runUntil(m.Eng, 10*time.Second, 100*time.Microsecond, func() bool {
		rc.clock.progress(res.ops)
		return finished == fsThreads
	})
	rc.clock.end()
	if err != nil {
		return nil, err
	}
	// Let the background flusher go idle, as the set-up phases did.
	m.Run(0)

	res.vt = vtEnd - vtStart
	engineCounts(res, m.Eng, eng0)
	deviceCounts(res, m.Dev, dev0)
	cacheCounts(res, fi.AeoFS.CacheStats(), cache0)
	for _, th := range threads {
		if th != nil {
			threadCounts(res, th)
		}
	}
	return res, nil
}

// fsFill creates thread t's directory and files, every page at version 1.
func fsFill(env *sim.Env, fi *machine.FSInstance, t int, tag uint64) error {
	if _, err := fi.AeoFS.Driver().CreateQP(env); err != nil {
		return err
	}
	if err := fi.FS.Mkdir(env, fmt.Sprintf("/t%d", t)); err != nil {
		return err
	}
	buf := make([]byte, fsExtent)
	for f := 0; f < fsFilesPerThread; f++ {
		fd, err := fi.FS.Open(env, fsPath(t, f), vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			return err
		}
		id := uint64(t*fsFilesPerThread + f)
		for off := 0; off < fsFileBytes; off += fsExtent {
			for p := 0; p < fsExtent/fsPage; p++ {
				pageStamp(buf[p*fsPage:(p+1)*fsPage], id, uint64((off+p*fsPage)/fsPage), 1, tag)
			}
			if _, err := fi.FS.WriteAt(env, fd, buf, uint64(off)); err != nil {
				return err
			}
		}
		if err := fi.FS.Fsync(env, fd); err != nil {
			return err
		}
		if err := fi.FS.Close(env, fd); err != nil {
			return err
		}
	}
	return nil
}

// fsThread is one application thread of the measured phase.
type fsThread struct {
	env *sim.Env
	rc  *roundCtx
	res *roundResult
	fs  vfs.FileSystem
	t   int
	tag uint64

	fds      [fsFilesPerThread]int
	versions map[[2]uint64]uint64 // (file, page) → last version written
	writes   int
	metaSeq  int
	metaLive []string // live metadata files, oldest first
	req      uint64
}

// call wraps one vfs call in a span under parent.
func (th *fsThread) call(name string, parent int, fn func() error) error {
	c := th.rc.spans.begin(name, parent, th.req, th.t, th.env.Now())
	err := fn()
	th.rc.spans.end(c, th.env.Now())
	return err
}

func (th *fsThread) run(ops int) {
	env, res := th.env, th.res
	r := newRNG(th.rc.seed ^ uint64(th.t+1)*0x9E6C63D0676A9A99)
	th.versions = map[[2]uint64]uint64{}
	for f := range th.fds {
		fd, err := th.fs.Open(env, fsPath(th.t, f), vfs.O_RDWR)
		if err != nil {
			res.fail("thread %d: open %s: %v", th.t, fsPath(th.t, f), err)
			return
		}
		th.fds[f] = fd
	}
	extents := fsFilesPerThread * fsFileBytes / fsExtent
	cdf := zipfCDF(extents, fsZipfS)
	rank := make([]int, extents) // zipf rank → extent, a seeded permutation
	for i := range rank {
		rank[i] = i
	}
	for i := len(rank) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	page := make([]byte, fsPage)
	scan := make([]byte, fsExtent)
	for i := 0; i < ops; i++ {
		th.req = uint64(th.t)<<32 | uint64(i)
		res.ops++
		ext := rank[zipfDraw(r, cdf)]
		f := ext / (fsFileBytes / fsExtent)
		extOff := uint64(ext%(fsFileBytes/fsExtent)) * fsExtent
		pg := extOff/fsPage + uint64(r.intn(fsExtent/fsPage))
		u := r.intn(100)
		t0 := env.Now()
		var err error
		switch {
		case u < fsPctRead:
			err = th.pread(f, pg, page)
			if err == nil {
				res.record("read", env.Now()-t0)
			}
		case u < fsPctRead+fsPctWrite:
			err = th.pwrite(f, pg, page)
			if err == nil {
				res.record("write", env.Now()-t0)
			}
		case u < fsPctRead+fsPctWrite+fsPctScan:
			err = th.scan(f, extOff, scan)
			if err == nil {
				res.record("scan", env.Now()-t0)
			}
		default:
			err = th.meta(r, page)
			if err == nil {
				res.record("meta", env.Now()-t0)
			}
		}
		if err != nil {
			res.fail("thread %d op %d: %v", th.t, i, err)
		}
	}
	for f, fd := range th.fds {
		if err := th.fs.Close(env, fd); err != nil {
			res.fail("thread %d: close %s: %v", th.t, fsPath(th.t, f), err)
		}
	}
}

func (th *fsThread) fileID(f int) uint64 { return uint64(th.t*fsFilesPerThread + f) }

// version is the last version written to a data page (the fill wrote 1).
func (th *fsThread) version(f int, pg uint64) uint64 {
	if v, ok := th.versions[[2]uint64{th.fileID(f), pg}]; ok {
		return v
	}
	return 1
}

func (th *fsThread) pread(f int, pg uint64, buf []byte) error {
	sp := th.rc.spans.begin("fs.pread", 0, th.req, th.t, th.env.Now())
	defer func() { th.rc.spans.end(sp, th.env.Now()) }()
	var n int
	err := th.call("vfs.read", sp, func() (e error) {
		n, e = th.fs.ReadAt(th.env, th.fds[f], buf, pg*fsPage)
		return e
	})
	if err != nil {
		return err
	}
	th.res.counts["user.bytes"] += float64(n)
	if n != len(buf) || !pageVerify(buf, th.fileID(f), pg, th.version(f, pg), th.tag) {
		return fmt.Errorf("read %s page %d: stale or corrupt page (want version %d)", fsPath(th.t, f), pg, th.version(f, pg))
	}
	return nil
}

func (th *fsThread) pwrite(f int, pg uint64, buf []byte) error {
	sp := th.rc.spans.begin("fs.pwrite", 0, th.req, th.t, th.env.Now())
	defer func() { th.rc.spans.end(sp, th.env.Now()) }()
	ver := th.version(f, pg) + 1
	pageStamp(buf, th.fileID(f), pg, ver, th.tag)
	err := th.call("vfs.write", sp, func() error {
		_, e := th.fs.WriteAt(th.env, th.fds[f], buf, pg*fsPage)
		return e
	})
	if err != nil {
		return err
	}
	th.versions[[2]uint64{th.fileID(f), pg}] = ver
	th.res.counts["user.bytes"] += float64(len(buf))
	th.res.counts["user.writes"]++
	th.writes++
	if th.writes%fsFsyncEvery == 0 {
		t0 := th.env.Now()
		if err := th.call("vfs.fsync", sp, func() error { return th.fs.Fsync(th.env, th.fds[f]) }); err != nil {
			return err
		}
		th.res.record("fsync", th.env.Now()-t0)
	}
	return nil
}

func (th *fsThread) scan(f int, off uint64, buf []byte) error {
	sp := th.rc.spans.begin("fs.scan", 0, th.req, th.t, th.env.Now())
	defer func() { th.rc.spans.end(sp, th.env.Now()) }()
	var n int
	err := th.call("vfs.read", sp, func() (e error) {
		n, e = th.fs.ReadAt(th.env, th.fds[f], buf, off)
		return e
	})
	if err != nil {
		return err
	}
	th.res.counts["user.bytes"] += float64(n)
	if n != len(buf) {
		return fmt.Errorf("scan %s at %d: short read %d", fsPath(th.t, f), off, n)
	}
	for p := 0; p < len(buf)/fsPage; p++ {
		pg := off/fsPage + uint64(p)
		if !pageVerify(buf[p*fsPage:(p+1)*fsPage], th.fileID(f), pg, th.version(f, pg), th.tag) {
			le := binary.LittleEndian
			q := buf[p*fsPage:]
			return fmt.Errorf("scan %s page %d: stale or corrupt page (want file %d version %d, got file %d page %d version %d)", fsPath(th.t, f), pg, th.fileID(f), th.version(f, pg), le.Uint64(q), le.Uint64(q[8:]), le.Uint64(q[16:]))
		}
	}
	return nil
}

// meta runs one metadata op: create+write+close of a new file, stat, or
// unlink of the oldest live one, keeping at most fsMetaLive alive.
func (th *fsThread) meta(r *rng, buf []byte) error {
	env := th.env
	sp := th.rc.spans.begin("fs.meta", 0, th.req, th.t, env.Now())
	defer func() { th.rc.spans.end(sp, env.Now()) }()
	kind := r.intn(3)
	switch {
	case kind == 0 && len(th.metaLive) < fsMetaLive, kind == 2 && len(th.metaLive) == 0:
		path := fmt.Sprintf("/t%d/m%d", th.t, th.metaSeq)
		th.metaSeq++
		var fd int
		if err := th.call("vfs.open", sp, func() (e error) {
			fd, e = th.fs.Open(env, path, vfs.O_CREATE|vfs.O_RDWR)
			return e
		}); err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		pageStamp(buf, uint64(1)<<40|uint64(th.metaSeq), 0, 1, th.tag)
		if err := th.call("vfs.write", sp, func() error {
			_, e := th.fs.WriteAt(env, fd, buf, 0)
			return e
		}); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := th.call("vfs.close", sp, func() error { return th.fs.Close(env, fd) }); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		th.metaLive = append(th.metaLive, path)
	case kind == 1:
		f := r.intn(fsFilesPerThread)
		var st vfs.FileInfo
		if err := th.call("vfs.stat", sp, func() (e error) {
			st, e = th.fs.Stat(env, fsPath(th.t, f))
			return e
		}); err != nil {
			return fmt.Errorf("stat %s: %w", fsPath(th.t, f), err)
		}
		if st.Size != fsFileBytes {
			return fmt.Errorf("stat %s: size %d, want %d", fsPath(th.t, f), st.Size, fsFileBytes)
		}
	default:
		path := th.metaLive[0]
		th.metaLive = th.metaLive[1:]
		if err := th.call("vfs.unlink", sp, func() error { return th.fs.Unlink(env, path) }); err != nil {
			return fmt.Errorf("unlink %s: %w", path, err)
		}
	}
	return nil
}
