package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// hostModules are the modules host time and allocations are charged to;
// a sample with no aeolia/internal frame is charged to "other" (runtime,
// garbage collection and the benchmark itself).
var hostModules = []string{
	"sim", "sched", "nvme", "uintr", "aeokern", "mpk", "aeodriver", "aeofs",
	"vfs", "netsim", "wire", "aeosvc", "aeomds", "raft", "cluster", "iobuf", "other",
}

// shares maps a module to its share of a profile's samples.
type shares map[string]float64

// profiler holds the in-process CPU and heap profiles of a traced run.
type profiler struct {
	dir, workload string
	cpu           *os.File
	// memRate is the heap sampling rate to restore when profiling stops.
	memRate int
}

// heapSampleRate is the allocation sampling interval while profiling:
// finer than the runtime default, so small modules still get samples.
const heapSampleRate = 16 << 10

func startProfiles(dir, workload string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu-"+workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &profiler{dir: dir, workload: workload, cpu: f, memRate: runtime.MemProfileRate}
	runtime.MemProfileRate = heapSampleRate
	return p, nil
}

// stop ends profiling and returns the CPU-time and allocation shares,
// keyed "cpu" and "alloc".
func (p *profiler) stop() (map[string]shares, error) {
	pprof.StopCPUProfile()
	runtime.MemProfileRate = p.memRate
	if err := p.cpu.Close(); err != nil {
		return nil, err
	}
	heapPath := filepath.Join(p.dir, "allocs-"+p.workload+".pprof")
	h, err := os.Create(heapPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.Lookup("allocs").WriteTo(h, 0); err != nil {
		h.Close()
		return nil, err
	}
	if err := h.Close(); err != nil {
		return nil, err
	}
	cpu, err := profileShares(p.cpu.Name(), "cpu/nanoseconds")
	if err != nil {
		return nil, err
	}
	alloc, err := profileShares(heapPath, "alloc_objects/count")
	if err != nil {
		return nil, err
	}
	return map[string]shares{"cpu": cpu, "alloc": alloc}, nil
}

// profileShares reads a profile with `go tool pprof -raw` and charges each
// sample's value (column col) to the innermost aeolia/internal module on
// its stack.
func profileShares(path, col string) (shares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseRawProfile(out, col)
}

// parseRawProfile parses pprof's -raw text: a "Samples:" section whose
// header names the value columns and whose rows read "v1 v2 ...: loc
// loc ...", leaf first; then a "Locations" section of "id: addr M=n func
// file:line" lines, where indented continuation lines are the callers an
// inlined location expands to (innermost first).
func parseRawProfile(out []byte, col string) (shares, error) {
	type sample struct {
		v    int64
		locs []string
	}
	var samples []sample
	locFuncs := map[string][]string{}
	colIdx := -1
	section := ""
	lastLoc := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case line == "Samples:":
			section = "header"
			continue
		case line == "Locations":
			section = "locations"
			continue
		case line == "Mappings":
			section = ""
			continue
		}
		switch section {
		case "header":
			for i, f := range strings.Fields(trimmed) {
				if strings.TrimSuffix(f, "[dflt]") == col {
					colIdx = i
				}
			}
			if colIdx < 0 {
				return nil, fmt.Errorf("pprof: no %s column in %q", col, trimmed)
			}
			section = "samples"
		case "samples":
			vals, locs, ok := strings.Cut(trimmed, ":")
			if !ok || strings.Contains(vals, "[") {
				continue // a label line
			}
			fs := strings.Fields(vals)
			if colIdx >= len(fs) {
				continue
			}
			v, err := strconv.ParseInt(fs[colIdx], 10, 64)
			if err != nil {
				continue
			}
			samples = append(samples, sample{v: v, locs: strings.Fields(locs)})
		case "locations":
			fs := strings.Fields(trimmed)
			if len(fs) >= 4 && strings.HasSuffix(fs[0], ":") && strings.HasPrefix(fs[1], "0x") {
				lastLoc = strings.TrimSuffix(fs[0], ":")
				locFuncs[lastLoc] = append(locFuncs[lastLoc], fs[3])
			} else if len(fs) > 0 && lastLoc != "" {
				locFuncs[lastLoc] = append(locFuncs[lastLoc], fs[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sh := shares{}
	var total float64
	for _, s := range samples {
		mod := "other"
	find:
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if m, ok := moduleOf(fn); ok {
					mod = m
					break find
				}
			}
		}
		sh[mod] += float64(s.v)
		total += float64(s.v)
	}
	if total > 0 {
		for k := range sh {
			sh[k] /= total
		}
	}
	return sh, nil
}

// moduleOf maps a function name like "aeolia/internal/nvme.(*Device).x"
// to "nvme"; modules outside hostModules count as "other".
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "aeolia/internal/")
	if !ok {
		return "", false
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return "", false
	}
	m := rest[:end]
	for _, h := range hostModules {
		if h == m {
			return m, true
		}
	}
	return "other", true
}
