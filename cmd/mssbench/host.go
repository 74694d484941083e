package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a result set was taken on, so two
// sets from different hosts are not compared as if they were one.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibNS    float64 `json:"calib_ns"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// calibrate times a fixed FNV-1a pass over 64 MiB (a 1 MiB buffer, 64
// times; fewer at -scale < 1): a host-speed yardstick that does not
// depend on the repository, printed beside every result set so runs on
// different CPUs can be told apart. It is a label, not a correction: on
// the builder's VM it stayed within 2 % while memory-heavy workloads
// drifted by 17 % (see README, "Host noise").
func calibrate(scale float64) float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	passes := max(1, int(64*scale))
	start := time.Now()
	h := uint64(14695981039346656037)
	for pass := 0; pass < passes; pass++ {
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	calibSink = h
	return float64(time.Since(start).Nanoseconds()) * 64 / float64(passes)
}

// calibSink keeps the hash alive so the loop cannot be optimised away.
var calibSink uint64

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// usage is a point-in-time reading of the process counters the
// per-unit cost metrics are differences of.
type usage struct {
	at      time.Time
	cpu     float64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}
