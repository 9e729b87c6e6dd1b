package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the metadata printed with every result and stored in every
// trace file.
type machine struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified,omitempty"`
}

func machineInfo() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// settle collects garbage and returns free memory to the OS, so a timed
// phase starts from the same heap state whatever came before it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime counters the "go" layer
// metrics are deltas of.
type runtimeSample struct {
	at                 time.Time
	cpu                time.Duration
	gcCPU, totalCPU    float64
	allocBytes, allocs uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{
		at: time.Now(), cpu: cpuTime(),
		gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), allocs: u(3),
	}
}

// rtDelta is the runtime's work between two samples.
type rtDelta struct {
	wall, cpu          time.Duration
	gcCPU, totalCPU    float64
	allocBytes, allocs uint64
}

func (a runtimeSample) to(b runtimeSample) rtDelta {
	return rtDelta{
		wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu,
		gcCPU: b.gcCPU - a.gcCPU, totalCPU: b.totalCPU - a.totalCPU,
		allocBytes: b.allocBytes - a.allocBytes, allocs: b.allocs - a.allocs,
	}
}

func (d *rtDelta) add(e rtDelta) {
	d.wall += e.wall
	d.cpu += e.cpu
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
	d.allocBytes += e.allocBytes
	d.allocs += e.allocs
}

// goLayer turns the runtime's work over ops operations into the "go"
// layer metrics.
func goLayer(d rtDelta, ops int, m map[string]metric) {
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	m["go.parallelism"] = metric{ratio(d.cpu.Seconds(), d.wall.Seconds()), "ratio"}
	m["go.gc_cpu_share"] = metric{ratio(d.gcCPU, d.totalCPU), "ratio"}
	m["go.alloc_mb_per_op"] = metric{float64(d.allocBytes) / n / (1 << 20), "MB"}
	m["go.allocs_per_op"] = metric{float64(d.allocs) / n, "count"}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
