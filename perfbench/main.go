// Command perfbench is the repository's benchmark: it times a cold IOS
// search (cold_nasnet, cold_randwire) and the schedule server under a
// closed loop of HTTP clients (warm_serve, novel_graphs), checks every
// output, and prints the metrics as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload cold_nasnet --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead replays the same work through each layer's
// public functions under in-memory spans, prints the per-layer metrics,
// and writes the spans as a Chrome trace under .bench_build/traces. See
// perfbench/README.md for every metric and workload.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when package main was initialized.
var processStart = time.Now()

// launchEnv names the variable run.sh sets to the time, in Unix
// nanoseconds, at which it execs the binary.
const launchEnv = "PERFBENCH_LAUNCH_NS"

// launched is when the process started: the exec time run.sh passes, so
// start-up work anywhere in the program counts; run directly, the binary
// counts from its own initialization.
func launched() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv(launchEnv), 10, 64); err == nil && ns > 0 {
		return time.Unix(0, ns)
	}
	return processStart
}

// setupSeconds is setup_s: the process's start-up (launch to the first
// set-up) plus the median of the repeated set-ups.
func setupSeconds(startup time.Duration, reps []time.Duration) metric {
	return metric{startup.Seconds() + median(seconds(reps)), "s"}
}

// A run sets its workload up at least minSetups times and, while set-up
// is cheap, again until setupBudget has passed (at most maxSetups times);
// setup_s uses the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// moreSetups reports whether a run that began setting up at start and has
// the given set-up times should set up again.
func moreSetups(times []time.Duration, start time.Time) bool {
	return len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"optimize_s", "s"},
	{"optimize_cpu_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload never calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"graph.from_json_us", "us"},
	{"graph.fingerprint_us", "us"},
	{"graph.partition_us", "us"},
	{"serve.handler_us", "us"},
	{"http.transport_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.cache.lookup_us", "us"},
	{"serve.cache.hits", "count"},
	{"serve.cache.misses", "count"},
	{"serve.cache.evictions", "count"},
	{"blockcache.fingerprint_ms", "ms"},
	{"blockcache.rebind_us", "us"},
	{"blockcache.searches", "count"},
	{"blockcache.saved", "count"},
	{"core.search_s", "s"},
	{"core.critical_s", "s"},
	{"core.self_s", "s"},
	{"core.states", "count"},
	{"core.transitions", "count"},
	{"measure.misses", "count"},
	{"measure.saved", "count"},
	{"measure.saved_share", "ratio"},
	{"profile.prelower_ms", "ms"},
	{"profile.measure_schedule_us", "us"},
	{"gpusim.runs", "count"},
	{"gpusim.busy_s", "s"},
	{"gpusim.run_us", "us"},
	{"schedule.marshal_us", "us"},
	{"go.parallelism", "ratio"},
	{"go.gc_cpu_share", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"bench.uncovered_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

func unitOf(name string) string {
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range l {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	nproc    int // closed-loop clients and search workers
	exp      expected
	meta     machine
}

// expected holds the committed outputs the checks compare against.
type expected struct {
	// Cold maps a zoo model to its cold-search outcome.
	Cold map[string]coldExpect `json:"cold"`
	// LatencyMS maps a zoo model to the latency_ms /optimize reports for
	// it at batch 1 on the V100 with paper options.
	LatencyMS map[string]float64 `json:"latency_ms"`
}

//go:embed expected.json
var expectedJSON []byte

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// fail counts one failed op and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a failed check that is not an op of its own.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// opTimes reports a workload's op latencies: the request a caller makes
// is one Optimize on the cold workloads and one HTTP round trip on the
// serve workloads.
func (o *outcome) opTimes(ops []time.Duration, rate float64) {
	xs := seconds(ops)
	o.metrics["req_p50_ms"] = metric{1e3 * median(xs), "ms"}
	o.metrics["req_p90_ms"] = metric{1e3 * quantile(xs, 0.9), "ms"}
	o.metrics["rps"] = metric{rate, "1/s"}
	o.notef("req_p50_ms and req_p90_ms over %d ops", len(ops))
}

type workloadFunc func(ctx context.Context, c *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"cold_nasnet":   func(ctx context.Context, c *config) (*outcome, error) { return runCold(ctx, c, "nasnet") },
	"cold_randwire": func(ctx context.Context, c *config) (*outcome, error) { return runCold(ctx, c, "randwire") },
	"warm_serve":    func(ctx context.Context, c *config) (*outcome, error) { return runServe(ctx, c, false) },
	"novel_graphs":  func(ctx context.Context, c *config) (*outcome, error) { return runServe(ctx, c, true) },
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	secs := fs.Float64("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 replays the workload under spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	c := &config{
		workload: *workload, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*secs * float64(time.Second)),
		nproc:   runtime.NumCPU(), meta: machineInfo(),
	}
	if err := json.Unmarshal(expectedJSON, &c.exp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o, err := fn(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	want := endToEnd
	if c.trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := o.metrics[m.name]; !ok {
				o.metrics[m.name] = metric{0, m.unit}
			}
		}
	}
	report := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := o.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", c.workload, m.name)
			return 1
		}
		report[m.name] = v
	}
	printSummary(c, o, report)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.problems) == 0, o.attempted, o.failed, report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary prints the human-readable lines that precede the result.
func printSummary(c *config, o *outcome, report map[string]metric) {
	meta, _ := json.Marshal(c.meta)
	fmt.Printf("# machine %s\n", meta)
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", c.workload, c.seed, c.seconds.Seconds(), c.trace)
	names := make([]string, 0, len(report))
	for n := range report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, report[n].Value, report[n].Unit)
	}
	fmt.Printf("# ops sent %d, succeeded %d, failed %d\n", o.attempted, o.attempted-o.failed, o.failed)
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	for i, p := range o.problems {
		if i == 20 {
			fmt.Printf("# FAIL ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Printf("# FAIL %s\n", p)
	}
}

// writeTrace stores a traced run's spans in the checkout's build
// directory.
func writeTrace(c *config, tr *tracer) error {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err := tr.write(path, c.meta); err != nil {
		return err
	}
	fmt.Printf("# trace written to %s\n", path)
	return nil
}
