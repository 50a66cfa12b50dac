// Command perfbench is PROTEAN's benchmark: it runs one workload for a
// fixed wall-clock budget, checks the simulator's outputs, and prints
// one JSON object as the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload paper_grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the same workload runs once untraced
// and once traced (spans around every call into a layer, a CPU profile
// attributed to packages), and the object carries the per-layer
// metrics. The span tree and the raw profile are written under --out.
// README.md describes every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"protean/internal/experiments"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sizes    sizes
}

// sizes are the workloads' horizons and counts.
type sizes struct {
	// gridDuration and fleetDuration are paper_grid's horizons (s).
	gridDuration, fleetDuration float64
	// scaleHorizon is scale_stream's horizon (s).
	scaleHorizon float64
	// planeCells and planeHorizon shape plane_tenants.
	planeCells   int
	planeHorizon float64
}

// benchSizes are the sizes the benchmark measures. The Figure 5 grid
// runs at 20 s (15 s warm-up, 5 s recorded) instead of the paper's
// 60 s, and the Figure 9b fleet cells at 60 s instead of 120 s: at full
// length the held exact results peak above 4 GB, more than a shared
// 8 GB host can give one benchmark run.
var benchSizes = sizes{
	gridDuration:  20,
	fleetDuration: 60,
	scaleHorizon:  experiments.ScaleHorizon,
	planeCells:    128,
	planeHorizon:  30,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses flags, measures the workload and prints the report. It
// returns 0 only when every operation succeeded and every output check
// passed; a usage or set-up error returns 2 without a report.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: benchSizes}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured wall-clock budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/trace", "directory for the traced run's span tree and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seed == 0 {
		return 2, errors.New("--seed must be non-zero (0 selects the simulator's default seed)")
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	printHost(stderr)

	var rep *report
	var err error
	if cfg.trace {
		rep, err = measureTraced(w, cfg, stderr)
	} else {
		rep, err = measure(w, cfg, stderr)
	}
	if err != nil {
		return 2, err
	}
	return emit(rep, stdout)
}

// emit prints the report line and returns the exit code: 1 when any
// operation failed its output checks.
func emit(rep *report, stdout io.Writer) (int, error) {
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return 2, err
	}
	if !rep.Correct || rep.Failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed their output checks", rep.Failed, rep.Attempted)
	}
	return 0, nil
}

// printHost writes the host facts every reading depends on.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d GOGC=%q go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOGC"), runtime.Version())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// iterationStats is one timed iteration's host-side readings. setup and
// cpu are process CPU seconds; wall is elapsed time.
type iterationStats struct {
	setup, wall, cpu float64
	peakHeapMB       float64
}

// measure runs untraced iterations until the next one would overrun
// the budget (at least one), checks every outcome, and reports the
// end-to-end metrics: host readings as medians over iterations,
// modelled readings from the first iteration (later ones must repeat
// them exactly).
//
// Host times are process CPU seconds, not elapsed time. On a shared VM
// the hypervisor can take the CPU away for minutes (steal); elapsed
// time then doubles while CPU time, from which the kernel subtracts
// steal, does not move. CPU time still drifts with the speed of the
// vCPU, so the reference kernel runs between iterations and host times
// are reported at its reference speed (calibrate.go).
func measure(w workload, cfg config, logw io.Writer) (*report, error) {
	var (
		stats  []iterationStats
		setups []float64
		first  *outcome
		acc    tally
	)
	budget := cfg.seconds
	var cal calibration
	if err := cal.block(refLead * budget); err != nil {
		return nil, err
	}
	iterWall := 0.0
	for {
		st, out, err := iterate(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		acc.add(out)
		if first == nil {
			first = out
		} else {
			acc.check("repeat", checkRepeat(first.modelled, out.modelled))
			acc.check("repeat digest", checkDigest(first.digest, out.digest))
		}
		stats = append(stats, st)
		setups = append(setups, st.setup)
		iterWall += st.wall
		fmt.Fprintf(logw, "%s iteration %d: setup %.4fs wall %.3fs cpu %.3fs peak heap %.0f MiB\n",
			w.name, len(stats), st.setup, st.wall, st.cpu, st.peakHeapMB)
		// Room for this iteration's block, the next iteration and its block?
		if cal.wallSum+iterWall+st.wall*(1+2*refShare) > budget {
			if err := cal.block(math.Max(refShare*st.wall, budget-cal.wallSum-iterWall)); err != nil {
				return nil, err
			}
			break
		}
		if err := cal.block(refShare * st.wall); err != nil {
			return nil, err
		}
	}
	for len(setups) < minSetups {
		setup, _, err := timeSetup(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	if w.reference != nil {
		acc.check("reference", w.reference(cfg, first))
	}
	fmt.Fprintf(logw, "%s reference kernel: %d runs, median %.4fs CPU\n", w.name, cal.runs(), refNominalS/cal.scale())

	cpus := make([]float64, len(stats))
	heaps := make([]float64, len(stats))
	for i, st := range stats {
		cpus[i] = cal.around(i) * st.cpu
		heaps[i] = st.peakHeapMB
	}
	cpu := median(cpus)
	m := map[string]metric{
		"setup_s":                 {cal.scale() * median(setups), "s"},
		"norm_cpu_s":              {cpu, "s"},
		"requests_per_norm_cpu_s": {float64(first.offered) / cpu, "1/s"},
		"peak_heap_mb":            {median(heaps), "MiB"},
	}
	for _, k := range endToEndModelled {
		m[k.name] = metric{first.modelled[k.name], k.unit}
	}
	acc.logFailures(logw)
	return acc.report(m), nil
}

// endToEndModelled are the deterministic end-to-end metrics every
// workload's outcome carries.
var endToEndModelled = []struct{ name, unit string }{
	{"slo_goodput", "ratio"},
	{"dollars_per_1k", "USD"},
	{"served_frac", "ratio"},
}

// minSetups is the fewest set-ups a run times. When the budget holds
// fewer iterations, the workload is set up again, without the timed
// call, until setup_s is a median of this many.
const minSetups = 21

// timeSetup runs one set-up and returns its process CPU seconds and
// the prepared call.
func timeSetup(w workload, cfg config, tr *tracer) (float64, prepared, error) {
	runtime.GC()
	c0 := processCPU()
	call, err := w.setup(cfg, tr)
	if err != nil {
		return 0, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return processCPU() - c0, call, nil
}

// iterate runs one set-up and one timed call. tr is nil for untraced
// iterations.
func iterate(w workload, cfg config, tr *tracer) (iterationStats, *outcome, error) {
	setup, call, err := timeSetup(w, cfg, tr)
	if err != nil {
		return iterationStats{}, nil, err
	}
	hs := startHeapSampler()
	c1 := processCPU()
	t1 := time.Now()
	out, err := call.run()
	wall := time.Since(t1).Seconds()
	cpu := processCPU() - c1
	peak := hs.stop()
	if tr != nil {
		tr.record("", w.name, time.Duration(wall*float64(time.Second)))
	}
	if err != nil {
		return iterationStats{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return iterationStats{setup: setup, wall: wall, cpu: cpu, peakHeapMB: peak}, out, nil
}

// tally accumulates operation counts and check failures across
// iterations.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(out *outcome) {
	t.attempted += out.attempted
	t.failed += len(out.failures)
	t.failures = append(t.failures, out.failures...)
}

// check counts one whole-run check as an operation.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (t *tally) logFailures(w io.Writer) {
	for _, f := range t.failures {
		fmt.Fprintln(w, "check failed:", f)
	}
}

func (t *tally) report(m map[string]metric) *report {
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// median returns the middle value (mean of the middle two for even
// counts); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the CPU time, user plus system, that all of the
// process's threads have used, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
