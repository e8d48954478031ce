package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]), or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime is the process's user+system CPU time so far, every thread
// included (GC workers too).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative number of heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, idle, steal uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat listing:
// "cpu user nice system idle iowait irq softirq steal guest guest_nice".
// Guest time is already counted in user and nice, so it is left out of the
// total. Kernels that print fewer fields report zero for the missing ones.
func parseProcStat(r io.Reader) (cpuStat, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 5 || f[0] != "cpu" {
			continue
		}
		var v [8]uint64
		for i := 1; i < len(f) && i <= len(v); i++ {
			n, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat: field %d of the cpu line: %w", i, err)
			}
			v[i-1] = n
		}
		var st cpuStat
		for _, n := range v {
			st.total += n
		}
		st.idle = v[3] + v[4] // idle + iowait
		st.steal = v[7]
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// readProcStat samples /proc/stat; ok is false where it cannot be read.
func readProcStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	st, err := parseProcStat(f)
	return st, err == nil
}

// shares reports the steal and idle time between two samples as shares of
// all CPU time that elapsed on the host between them.
func shares(a, b cpuStat) (steal, idle float64) {
	if b.total <= a.total {
		return 0, 0
	}
	d := float64(b.total - a.total)
	return float64(b.steal-a.steal) / d, float64(b.idle-a.idle) / d
}

// hostInfo is the record of where a run was measured.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealShare float64 `json:"steal_share"`
	IdleShare  float64 `json:"idle_share"`
}

func newHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}
