package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is what every report and trace file records about the
// machine and build that produced its numbers.
type environment struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUModel   string             `json:"cpu_model"`
	LoadAvg    string             `json:"load_average_at_start"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	BaseScales map[string]float64 `json:"base_scales"`
}

func readEnvironment(seed int64, quick bool) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
		Seed:       seed,
		Quick:      quick,
		BaseScales: baseScales,
	}
	// The driver's checkout is not a git repository; the commit is then
	// left unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			env.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return env
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1e3
			}
		}
	}
	return 0
}

// lastLevelCacheBytes reads the largest cache the first CPU reports,
// or 0 when sysfs does not expose it.
func lastLevelCacheBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(data))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}
