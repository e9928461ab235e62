package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is the block printed first and stored in result.json: what
// the numbers were measured on, and whether the box was quiet.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2_cache"`
	L3         string  `json:"l3_cache"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	Noisy      bool    `json:"noisy"`
	Network    string  `json:"network"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		Network:    "in-process ranks; TCP traffic crosses the host loopback, not a link",
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	env.Noisy = env.LoadAvg1 > 0.5*float64(env.NProc)
	return env
}

// cacheSize reads cpu0's cache of the given level from sysfs ("unknown"
// where the sandbox hides it).
func cacheSize(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", idx)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

func (e environment) print() {
	fmt.Printf("env: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q, L2 %s, L3 %s, loadavg(1m) %.2f\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.CPUModel, e.L2, e.L3, e.LoadAvg1)
	fmt.Printf("env: %s\n", e.Network)
	if e.Noisy {
		fmt.Printf("env: NOISY - load average above %.1f before starting; timings are suspect\n", 0.5*float64(e.NProc))
	}
}

// procCounters is a reading of the whole-process cost counters; the
// difference of two readings brackets a timed window.
type procCounters struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	cpuNS      int64
}

func readProcCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pc := procCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		pc.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return pc
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPauseNS:  a.gcPauseNS - b.gcPauseNS,
		cpuNS:      a.cpuNS - b.cpuNS,
	}
}

func (a procCounters) add(b procCounters) procCounters {
	return procCounters{
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcPauseNS:  a.gcPauseNS + b.gcPauseNS,
		cpuNS:      a.cpuNS + b.cpuNS,
	}
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
