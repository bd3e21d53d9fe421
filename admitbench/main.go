// Command admitbench is the admission benchmark: it replays a seeded flow
// trace against an in-process dagsfc control plane over loopback HTTP,
// times every admission, checks every answer against a sequential
// reference replay, and prints the metrics as one JSON line.
//
//	bash admitbench/run.sh --workload hybrid-knee --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same trace
// with tracing windows and prints the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: hybrid-knee, chain-durable or protect-faults")
		seed    = flag.Int64("seed", 1, "trace seed")
		seconds = flag.Int("seconds", 15, "timed phase length in seconds (whole windows, at least the quality window)")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "admitbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "admitbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "admitbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	conditions string
	problems   []string
	// traced marks a per-layer report; table holds its extra rows for
	// people only, for layers not every workload exercises.
	traced bool
	table  []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(w io.Writer) error {
	fmt.Fprintln(w, r.conditions)
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	if r.traced {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "per-layer table:")
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		}
		for _, row := range r.table {
			fmt.Fprintln(w, "  "+row)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

const (
	// setups is how many times a run sets the server up and warms it;
	// the median is setup_s and the last set-up is the one timed.
	setups = 3
	// windowArrivals splits the timed phase into windows; every timing
	// metric is the median of its per-window values, so a burst of host
	// steal shorter than half the run cannot move it. A window answers
	// 1,000 admissions, ten beyond its p99.
	windowArrivals = 1000
)

// sample is the process's clocks and allocation counters at a window
// boundary.
type sample struct {
	at            time.Time
	cpu           time.Duration
	allocs, bytes uint64
	// steal and ticks are the host's /proc/stat counters (zero where
	// unavailable).
	steal, ticks uint64
}

func takeSample() sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	steal, ticks, _ := hostTicks()
	return sample{
		at: time.Now(), cpu: processCPU(),
		allocs: s[0].Value.Uint64() + s[1].Value.Uint64(), bytes: s[2].Value.Uint64(),
		steal: steal, ticks: ticks,
	}
}

// setUp starts and warms the server setups times, keeping the last. With
// one request in flight the warm-ups must answer identically.
func setUp(ctx context.Context, w *workload, seed int64) (*runner, []float64, *carry, error) {
	var (
		r         *runner
		took      []float64
		firstWarm []*outcome
		c         = &carry{}
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			c.add(r)
			r.close()
		}
		begin := time.Now()
		var err error
		if r, err = startRunner(ctx, w, seed, walDirFor(i)); err != nil {
			return nil, nil, nil, err
		}
		if err := r.phase(func(arrivals int) bool { return arrivals >= w.warmup }); err != nil {
			r.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		took = append(took, time.Since(begin).Seconds())
		if i == 0 {
			firstWarm = r.flows
		} else if w.exact {
			if err := sameOutcomes(firstWarm, r.flows); err != nil {
				c.problems = append(c.problems, fmt.Sprintf("warm-up %d differs from warm-up 1: %v", i+1, err))
			}
		}
	}
	return r, took, c, nil
}

// carry sums the operations and problems of discarded set-ups.
type carry struct {
	attempted, failed int
	problems          []string
}

func (c *carry) add(r *runner) {
	c.attempted += r.attempted
	c.failed += r.failed
	c.problems = append(c.problems, r.problems...)
}

// run performs one benchmark run.
func run(ctx context.Context, w *workload, seed int64, length time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	r, setupTook, c, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()

	timedFrom, firstTimed := len(r.log), len(r.flows)
	var s0, s1 metricsSnap
	if traced {
		if s0, err = r.scrape(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	gc0, cycles0 := gcCPU(), gcCycles()
	steal0, ticks0, stealOK := hostTicks()
	var windows [][2]sample
	var live runtime.MemStats
	start := takeSample()
	first := start
	r.timed = true
	deadline := start.at.Add(length)
	err = r.phase(func(arrivals int) bool {
		if traced {
			r.traced = !r.traced
		}
		if arrivals%windowArrivals != 0 {
			return false
		}
		windows = append(windows, [2]sample{start, takeSample()})
		if arrivals == w.window {
			// The live heap is read at a fixed point of the trace, the end
			// of the quality window, so the client's own records are the
			// same size in every run; the forced GCs fall between windows.
			// The second GC frees what the first only moved to sync.Pool
			// victim caches, whose size depends on when the last automatic
			// GC ran.
			r.quiesce()
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&live)
			r.resume()
		}
		start = takeSample()
		return arrivals >= w.window && !time.Now().Before(deadline)
	})
	gc1, cycles1 := gcCPU(), gcCycles()
	steal1, ticks1, _ := hostTicks()
	r.timed, r.traced = false, false
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if traced {
		if s1, err = r.scrape(); err != nil {
			return nil, err
		}
	}
	rec, err := r.record(timedFrom, firstTimed)
	if err != nil {
		return nil, err
	}
	// The reference runs last: it records into the same process-wide
	// telemetry registry the scrapes above read.
	var probe *corePhases
	if traced {
		probe = &corePhases{}
	}
	v, err := verify(rec, newModel(r.net, probe))
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	c.add(r)
	c.failed += v.failed
	c.problems = append(c.problems, v.problems...)

	// Per-window figures over the timed admissions answered with a
	// decision (accepted or a 422 capacity rejection).
	timed := r.flows[firstTimed:]
	wins := len(windows)
	var p50s, p99s, rates, cpus, allocs, kbs []float64
	var all, untracedLats, tracedLats []time.Duration
	for k := 0; k < wins; k++ {
		var lats []time.Duration
		for _, o := range timed[k*windowArrivals : (k+1)*windowArrivals] {
			if !o.accepted && !o.rejected {
				continue
			}
			lats = append(lats, o.latency)
			if o.traced {
				tracedLats = append(tracedLats, o.latency)
			} else {
				untracedLats = append(untracedLats, o.latency)
			}
		}
		if len(lats) == 0 {
			return nil, fmt.Errorf("window %d answered no admission", k)
		}
		all = append(all, lats...)
		a, b, n := windows[k][0], windows[k][1], float64(len(lats))
		p50s = append(p50s, millis(quantile(lats, 0.50)))
		p99s = append(p99s, millis(quantile(lats, 0.99)))
		rates = append(rates, n/b.at.Sub(a.at).Seconds())
		cpus = append(cpus, millis(b.cpu-a.cpu)/n)
		allocs = append(allocs, float64(b.allocs-a.allocs)/n)
		kbs = append(kbs, float64(b.bytes-a.bytes)/1024/n)
		stealShare := 0.0
		if b.ticks > a.ticks {
			stealShare = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
		}
		fmt.Fprintf(os.Stderr, "window %d: p50 %.3fms p99 %.3fms rate %.1f/s cpu %.3fms host_steal %.1f%%\n",
			k, p50s[k], p99s[k], rates[k], cpus[k], 100*stealShare)
	}
	var accepted int
	var costSum float64
	for _, i := range rec.window {
		if o := r.flows[i]; o.accepted {
			accepted++
			costSum += o.cost
		}
	}
	steal := "n/a"
	if stealOK && ticks1 > ticks0 {
		steal = fmt.Sprintf("%.1f%%", 100*float64(steal1-steal0)/float64(ticks1-ticks0))
	}
	wall := windows[wins-1][1].at.Sub(first.at)
	res := &result{
		Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: make(map[string]metric), problems: c.problems,
		conditions: fmt.Sprintf("conditions: workload=%s seed=%d trace=%v gomaxprocs=%d cpu=%q go=%s attempted=%d failed=%d host_steal=%s timed=%.2fs windows=%d admissions=%d admit_rate=%.1f/s admit_p99_ms=%.3f",
			w.name, seed, traced, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), c.attempted, c.failed, steal,
			wall.Seconds(), wins, len(all), median(rates), median(p99s)),
	}
	if !traced {
		meanCost := 0.0
		if accepted > 0 {
			meanCost = costSum / float64(accepted)
		}
		res.set("admit_p50_ms", median(p50s), "ms")
		res.set("admit_cpu_ms", median(cpus), "ms")
		res.set("allocs_per_admit", median(allocs), "count")
		res.set("alloc_kb_per_admit", median(kbs), "KiB")
		res.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), "MiB")
		res.set("accepted_flows", float64(accepted), "count")
		res.set("mean_cost", meanCost, "cost")
		res.set("setup_s", median(setupTook), "s")
		return res, nil
	}
	res.traced = true
	layerMetrics(res, r, rec.reqs, s0, s1, probe, layerInputs{
		answered: float64(len(all)), timedArrivals: float64(len(timed)),
		gcCPU: gc1 - gc0, gcCycles: float64(cycles1 - cycles0),
		traced: tracedLats, untraced: untracedLats, p99: median(p99s),
	})
	return res, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the middle two for an
// even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sameOutcomes compares two warm-ups' answers one by one.
func sameOutcomes(a, b []*outcome) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d arrivals vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].accepted != b[i].accepted || a[i].cost != b[i].cost || a[i].backupCost != b[i].backupCost {
			return fmt.Errorf("flow %d answered differently", i)
		}
	}
	return nil
}
