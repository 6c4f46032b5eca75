// Command perfbench is the repository's benchmark: three seeded workloads,
// one per way the system is used, each reporting end-to-end metrics from an
// untraced run and per-layer metrics from a traced run.
//
//	bash perfbench/run.sh --workload tile-mcts --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it carry the run
// stamp and, for traced runs, the stage tables. See perfbench/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload;
// README.md defines each one per workload. They are the ones that repeat
// within their bounds on a small shared machine; the wall-clock latency
// and throughput figures are reported unbounded, as wall.* metrics of
// the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_eval", "us"},
	{"best_cycles", "cycles"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A workload that
// bypasses a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"wall.evals_per_s", "1/s"},
	{"wall.search_s", "s"},
	{"wall.p50_ms", "ms"},
	{"wall.p99_ms", "ms"},
	{"wall.max_rps", "req/s"},
	{"trace.overhead_ratio", "ratio"},
	{"dataflows.build_us", "us"},
	{"dataflows.build_share", "ratio"},
	{"dataflows.build_fail_ratio", "ratio"},
	{"core.eval_us", "us"},
	{"core.eval_share", "ratio"},
	{"core.reject_ratio", "ratio"},
	{"core.compiles_per_search", "count"},
	{"core.compile_us", "us"},
	{"core.rebind_us", "us"},
	{"mapper.self_share", "ratio"},
	{"mapper.valid_ratio", "ratio"},
	{"mapper.tunings_per_search", "count"},
	{"mapper.gen_ms_p50", "ms"},
	{"mapper.gen_ms_max", "ms"},
	{"mapper.cpu_util", "ratio"},
	{"mapper.tune_us", "us"},
	{"memo.fitness_hit_ratio", "ratio"},
	{"memo.result_hit_ratio", "ratio"},
	{"memo.result_evictions", "count"},
	{"memo.program_miss_ratio", "ratio"},
	{"runtime.allocs_per_eval", "count"},
	{"runtime.bytes_per_eval", "B"},
	{"runtime.gc_per_s", "1/s"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.rebind_p50_ms", "ms"},
	{"serve.compile_p50_ms", "ms"},
	{"serve.parse_p50_ms", "ms"},
	{"serve.tune_p50_ms", "ms"},
	{"serve.gen_lag_p99_ms", "ms"},
	{"serve.decode_us", "us"},
	{"serve.select_us", "us"},
	{"serve.key_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.unattributed_share", "ratio"},
	{"memo.lookup_us", "us"},
	{"yamlfe.load_us", "us"},
	{"notation.parse_us", "us"},
	{"arch.parse_us", "us"},
}

// runCtx carries one run's settings and collects what it prints.
type runCtx struct {
	seed    int64
	window  time.Duration
	trace   bool
	started time.Time
	stamp   map[string]any
	tables  []string
	spans   *tracer
	sampler *sampler
	// timed bounds the timed window: setup_s is scaled with the kernel
	// samples before it, cpu_us_per_eval with those inside it.
	timed [2]time.Time
}

// outcome is what a workload hands back: operation counts and metric
// values by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

type workloadDef struct {
	name string
	run  func(rc *runCtx) (*outcome, error)
}

var workloads = []workloadDef{
	{"tile-mcts", runTileMCTS},
	{"ga-search", runGASearch},
	{"serve-mix", runServeMix},
}

func main() {
	started := time.Now()
	if os.Getenv(clientEnv) == "1" {
		if err := clientMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench client:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: tile-mcts, ga-search or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; inputs are generated from it")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, started); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds float64, trace int, started time.Time) error {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	rc := &runCtx{
		seed:    seed,
		window:  time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		started: started,
		stamp:   runStamp(name, seed, trace),
	}
	if rc.trace {
		rc.spans = newTracer()
	}
	steal0, ticks0 := cpuSteal()
	rc.sampler = startSampler()
	out, err := wl.run(rc)
	rc.sampler.close()
	if err != nil {
		return err
	}
	steal1, ticks1 := cpuSteal()
	rc.stamp["cpu_steal_share"] = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	setupKernel := rc.sampler.kernelMS(started, rc.timed[0])
	timedKernel := rc.sampler.kernelMS(rc.timed[0], rc.timed[1])
	rc.stamp["ref_kernel_ms"] = map[string]float64{"setup": setupKernel, "timed": timedKernel}
	rc.stamp["raw_setup_s"] = out.metrics["setup_s"]
	rc.stamp["raw_cpu_us_per_eval"] = out.metrics["cpu_us_per_eval"]
	out.metrics["setup_s"] *= ratio(refKernelMS, setupKernel)
	out.metrics["cpu_us_per_eval"] *= ratio(refKernelMS, timedKernel)
	if rc.spans != nil {
		path := filepath.Join(".bench_build", "traces", name+".jsonl")
		if err := rc.spans.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rc.stamp["spans_file"] = path
	}
	out.metrics["peak_rss_mb"] = quantile(rc.sampler.residentSet(), rssQuantile)
	rc.stamp["max_rss_mb"] = peakRSSMB()

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !rc.trace {
			return fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only failed operations make a latency infinite, and those
			// already mark the run incorrect; JSON cannot carry the value.
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, t := range rc.tables {
		fmt.Fprint(stdout, t)
	}
	stamp, err := json.Marshal(map[string]any{"stamp": rc.stamp})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(stamp))
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(res))
	return nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// timeSetup runs fn reps times and returns the median wall time in
// seconds. Each repetition is timed from its own start; the stamp records
// every repetition and the time from main to the first one.
func (rc *runCtx) timeSetup(reps int, fn func() error) (float64, error) {
	rc.stamp["main_to_setup_s"] = time.Since(rc.started).Seconds()
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rc.stamp["setup_reps_s"] = times
	return median(times), nil
}

// table queues a stage table for printing before the result line.
func (rc *runCtx) table(format string, args ...any) {
	rc.tables = append(rc.tables, fmt.Sprintf(format, args...))
}

// runStamp records where and on what a run happened.
func runStamp(name string, seed int64, trace int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"valid":      true,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision the benchmark binary was built from, when the
// build saw a git checkout; "unknown" otherwise (sourceDigest still
// identifies the code).
func commit() string {
	if b, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if h, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(h))
			}
			return "unknown"
		}
		return ref
	}
	return "unknown"
}

// sourceDigest hashes the program's sources (go.mod, cmd/, internal/), so
// runs of the same code carry the same digest in checkouts without git.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal reads the machine's stolen and total CPU ticks from /proc/stat:
// time a hypervisor gave other guests shows up as steal, and a run with a
// high steal share measured a contended machine.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssQuantile is the quantile of the resident-set samples peak_rss_mb
// reports: twenty of the 400 samples of a 20 s run lie above it. The
// highest resident set of a run is one overshoot of the garbage
// collector's heap goal, held for a few milliseconds: on tile-mcts it
// read 12.7–18.3 MB in runs of one code whose 0.95 quantile stayed at
// 12.4–12.5 MB. A lasting growth moves the quantile; a lone overshoot
// does not.
const rssQuantile = 0.95

// residentMB is the process's current resident set, from
// /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	var pages float64
	if _, err := fmt.Sscan(f[1], &pages); err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// workCPU is the process's CPU time less the sampler's. A workload reads
// it at both ends of its timed window and marks the window with
// timedWindow.
func (rc *runCtx) workCPU() time.Duration {
	return cpuTime() - rc.sampler.cpuUsed()
}

// timedWindow records the timed window's bounds.
func (rc *runCtx) timedWindow(from, to time.Time) {
	rc.timed = [2]time.Time{from, to}
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is a runtime.MemStats subset taken at phase boundaries.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	at             time.Time
}

func snapMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC, at: time.Now()}
}

// runtimeMetrics fills the runtime layer's metrics for evals operations
// between two snapshots.
func runtimeMetrics(m map[string]float64, a, b memSnap, evals int) {
	m["runtime.allocs_per_eval"] = ratio(float64(b.mallocs-a.mallocs), float64(evals))
	m["runtime.bytes_per_eval"] = ratio(float64(b.bytes-a.bytes), float64(evals))
	m["runtime.gc_per_s"] = ratio(float64(b.gcs-a.gcs), b.at.Sub(a.at).Seconds())
}

// digestOf is a short hex SHA-256 of s, for input and stream digests.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
