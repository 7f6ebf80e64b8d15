// Command perfbench is the repository benchmark: it drives the jrpm
// pipeline through its public entry points on one of three workloads,
// checks every result against the expected table, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as a
// JSON object on the last line of standard output.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload suite-jobs --seed 1 --seconds 30 --trace 0
//
// RATIONALE.json records why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// metric is one reported figure.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the system sees, reported with
// -trace 0 on every workload.
var endToEnd = []metric{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p98_ms", "ms"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the figures of single layers, reported with -trace 1.
// A workload that bypasses a layer reports 0 for its metrics.
var perLayer = []metric{
	{"service.queue_wait_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.rejected", "count"},
	{"lang.compile_ms", "ms"},
	{"annotate.apply_ms", "ms"},
	{"annotate.annotations", "count"},
	{"vmsim.predecode_ms", "ms"},
	{"vmsim.clean_ms", "ms"},
	{"vmsim.clean_ns_per_cycle", "ns"},
	{"vmsim.traced_ms", "ms"},
	{"vmsim.traced_ns_per_event", "ns"},
	{"vmsim.traced_over_clean", "ratio"},
	{"vmsim.self_ms", "ms"},
	{"vmsim.profile_ms", "ms"},
	{"core.consume_ms", "ms"},
	{"core.ns_per_event", "ns"},
	{"trace.encode_ms", "ms"},
	{"trace.bytes_per_event", "B"},
	{"trace.decode_ms", "ms"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.replay_ms", "ms"},
	{"trace.replay_over_live", "ratio"},
	{"profile.select_ms", "ms"},
	{"tls.speculate_ms", "ms"},
	{"tls.record_run_ms", "ms"},
	{"tls.simulate_ms", "ms"},
	{"tls.threads", "count"},
	{"tls.violations", "count"},
	{"native.profile_ms", "ms"},
	{"native.over_predecode", "ratio"},
	{"native.loops_compiled", "count"},
	{"native.loops_rejected", "count"},
	{"native.deopts", "count"},
	{"corpus.generate_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"unattributed_frac", "frac"},
	{"tracing_overhead_frac", "frac"},
}

// bench is one set-up workload.
type bench interface {
	// items names the schedule's items (kernels, recordings, programs).
	items() []string
	// clients is how many closed-loop clients issue ops.
	clients() int
	// op runs one op on item untraced; a failed or wrong result is an
	// error.
	op(ctx context.Context, item int) error
	// traced runs one op on item with spans, returning the op's own
	// duration (its root span), then reruns its stages to explain it.
	traced(ctx context.Context, item int, id int64, rec *recorder, a *acc) (time.Duration, error)
	// layers turns the traced run's accumulators into per-layer metrics.
	layers(a *acc, ops int) map[string]float64
	close()
}

// setupInfo is what a setup reports besides the bench itself.
type setupInfo struct {
	witnesses int     // independent checks made
	failures  []error // checks that failed
	// unpinned is set when expected.json has no results for the seed,
	// so the ops are checked against set-up witnesses only.
	unpinned bool
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, seed uint64, exp *expectTable, traceMode bool, a *acc) (bench, setupInfo, error)
}

var workloadDefs = []workloadDef{
	{"suite-jobs", setupSuiteJobs},
	{"sweep-replay", setupSweepReplay},
	{"corpus-cold", setupCorpusCold},
}

// acc accumulates named sums from concurrent ops.
type acc struct {
	mu  sync.Mutex
	sum map[string]float64
}

func newAcc() *acc { return &acc{sum: map[string]float64{}} }

func (a *acc) add(name string, v float64) {
	a.mu.Lock()
	a.sum[name] += v
	a.mu.Unlock()
}

func (a *acc) get(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum[name]
}

// ratio is a.get(num)/a.get(den), or 0 when the denominator is 0.
func (a *acc) ratio(num, den string) float64 {
	d := a.get(den)
	if d == 0 {
		return 0
	}
	return a.get(num) / d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pos clamps a difference of two independent timings at zero.
func pos(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// phase is the outcome of one closed-loop measurement.
type phase struct {
	lat        []float64 // per-op latency, ms, sorted
	samples    []sample  // completed ops in completion order
	attempted  int
	failed     int
	firstErr   error
	allocs     uint64
	allocBytes uint64
	gcFrac     float64
	cpuS       float64 // CPU seconds the process used (runtime estimate)
	stealFrac  float64 // share of host CPU time stolen by the hypervisor
}

// measure runs b's clients in a closed loop for d. With rec set, ops
// run traced and their latency is the op's root span.
func measure(ctx context.Context, b bench, s schedule, d time.Duration, next *atomic.Int64, rec *recorder, a *acc) phase {
	var ph phase
	var mu sync.Mutex
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, st0 := cpuSeconds(), hostStat()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				var lat time.Duration
				var err error
				if rec == nil {
					t0 := time.Now()
					err = b.op(ctx, s.at(int(i)))
					lat = time.Since(t0)
				} else {
					lat, err = b.traced(ctx, s.at(int(i)), i, rec, a)
				}
				end := time.Since(start)
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = fmt.Errorf("op %d (%s): %w", i, s.items[s.at(int(i))], err)
					}
				} else {
					ph.lat = append(ph.lat, ms(lat))
					ph.samples = append(ph.samples, sample{end.Seconds(), ms(lat)})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds()
	ph.cpuS = cpu1.busy - cpu0.busy
	if st1 := hostStat(); st1[1] > st0[1] {
		ph.stealFrac = float64(st1[0]-st0[0]) / float64(st1[1]-st0[1])
	}
	ph.allocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if ph.cpuS > 0 {
		ph.gcFrac = (cpu1.gc - cpu0.gc) / ph.cpuS
	}
	sort.Float64s(ph.lat)
	return ph
}

// cpuTime is the process's cumulative CPU time as the runtime
// estimates it: the part spent in the garbage collector and all of it
// (the available CPU time minus the idle time).
type cpuTime struct{ gc, busy float64 }

func cpuSeconds() cpuTime {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return cpuTime{gc: v[0], busy: v[1] - v[2]}
}

// hostStat returns the host's cumulative steal and total CPU ticks from
// /proc/stat, or zeros where it is unreadable.
func hostStat() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64) // a malformed field counts as 0
		if i == 7 {
			out[0] = n
		}
		if i < 8 {
			out[1] += n
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload: suite-jobs, sweep-replay or corpus-cold")
		seed     = flag.Uint64("seed", 1, "workload seed: fixes the op order and the generated corpus")
		seconds  = flag.Float64("seconds", 30, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for the traced run's span file")
		commit   = flag.String("commit", "unknown", "commit of the code under test, for provenance")
		writeExp = flag.String("write-expected", "", "regenerate the expected table into this file and exit")
	)
	flag.Parse()
	ctx := context.Background()
	if *writeExp != "" {
		if err := writeExpected(ctx, *writeExp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload suite-jobs|sweep-replay|corpus-cold -seed N -seconds S -trace 0|1\n")
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Set up several times; keep the last set-up workload.
	setupAcc := newAcc()
	var b bench
	var info setupInfo
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		b, info, err = def.setup(ctx, *seed, exp, *traceOn == 1, setupAcc)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", def.name, err)
			return 1
		}
	}
	defer b.close()
	for _, e := range info.failures {
		fmt.Fprintf(os.Stderr, "perfbench: witness mismatch: %v\n", e)
	}
	sched := newSchedule(def.name, *seed, b.items())
	fmt.Printf("workload %s seed %d schedule_fingerprint %s items %d witnesses %d witness_failures %d\n",
		def.name, *seed, sched.fingerprint(), len(sched.items), info.witnesses, len(info.failures))

	d := time.Duration(*seconds * float64(time.Second))
	var next atomic.Int64
	res := result{Metrics: map[string]value{}}
	var ph phase
	if *traceOn == 0 {
		ph = measure(ctx, b, sched, d, &next, nil, nil)
		n := len(ph.lat)
		sum := summarize(ph.samples)
		// An op of sweep-replay is one sweep; its throughput counts cells.
		perOp := 1.0
		if def.name == "sweep-replay" {
			perOp = float64(len(sweepGrid()))
		}
		fails := ph.failed + len(info.failures)
		ok := 1 - float64(fails)/float64(max(ph.attempted, 1))
		vals := map[string]float64{
			"throughput_per_s": sum.throughput * perOp, "p50_ms": sum.p50, "p98_ms": sum.tail,
			"setup_s": median(setups), "ok_frac": max(ok, 0), "peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		unit := map[string]string{"suite-jobs": "jobs", "sweep-replay": "cells", "corpus-cold": "programs"}[def.name]
		fmt.Printf("%s_per_s %.4f  p50_ms %.4f  p%d_ms %.4f (medians over %d rounds of >= %d ops; %d ops)  error_frac %.6f  setup_s %.4f (median of %v)  peak_rss_mb %.1f\n",
			unit, sum.throughput*perOp, sum.p50, tailPct, sum.tail, sum.rounds, roundSize, n, 1-ok, median(setups), setups, peakRSSMB())
		if beyond(n, tailPct) < minBeyond {
			fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples beyond p%d; run longer\n", beyond(n, tailPct), tailPct)
		}
	} else {
		// Untraced first half for the overhead baseline and runtime
		// counters; traced second half for the breakdown.
		base := measure(ctx, b, sched, d/2, &next, nil, nil)
		rec, a := newRecorder(), newAcc()
		ph = measure(ctx, b, sched, d/2, &next, rec, a)
		ph.failed += base.failed
		ph.attempted += base.attempted
		if ph.firstErr == nil {
			ph.firstErr = base.firstErr
		}
		vals := b.layers(a, len(ph.lat))
		for k, v := range setupLayers(def.name, setupAcc) {
			vals[k] = v
		}
		nb := float64(max(len(base.lat), 1))
		vals["runtime.allocs_per_op"] = float64(base.allocs) / nb
		vals["runtime.alloc_bytes_per_op"] = float64(base.allocBytes) / nb
		vals["runtime.gc_cpu_frac"] = base.gcFrac
		if len(base.lat) > 0 && len(ph.lat) > 0 {
			vals["tracing_overhead_frac"] = mean(ph.lat)/mean(base.lat) - 1
		}
		self, count, opTotal := layerTotals(rec.spans)
		if opTotal > 0 {
			vals["unattributed_frac"] = float64(self[""]) / float64(opTotal)
		}
		if len(ph.lat) > 0 {
			vals["service.self_ms"] = float64(self["service"]) / 1e6 / float64(len(ph.lat))
			vals["vmsim.self_ms"] = float64(self["vmsim"]) / 1e6 / float64(len(ph.lat))
		}
		printLayerTable(self, count, len(ph.lat))
		for _, m := range perLayer {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		if err := os.MkdirAll(*out, 0o755); err == nil {
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, *seed))
			if err := rec.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			} else {
				fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
			}
		}
	}
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", ph.failed, ph.attempted, ph.firstErr)
	}
	res.Attempted = max(ph.attempted, 1)
	res.Failed = min(ph.failed+len(info.failures), res.Attempted)
	res.Correct = res.Failed == 0 && ph.attempted > 0
	prov := provenance(*commit, *seed, *seconds, setupRuns, ph.attempted, len(ph.lat))
	prov.CPUSeconds, prov.StealFrac = ph.cpuS, ph.stealFrac
	prov.ExpectedPinned = !info.unpinned
	pj, _ := json.Marshal(prov) // plain data; cannot fail
	fmt.Printf("provenance %s\n", pj)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// setupLayers reports the per-layer figures only set-up exercises.
func setupLayers(workload string, a *acc) map[string]float64 {
	out := map[string]float64{}
	if workload == "corpus-cold" {
		out["corpus.generate_ms"] = a.get("corpus.generate_ms") / setupRuns
	}
	return out
}

// printLayerTable prints each layer's self time per op and span count.
func printLayerTable(self map[string]int64, count map[string]int, ops int) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("layer self time over %d traced ops:\n", ops)
	for _, l := range layers {
		name := l
		if name == "" {
			name = "(unattributed)"
		}
		fmt.Printf("  %-16s %10.4f ms/op  %7d spans\n", name, float64(self[l])/1e6/float64(max(ops, 1)), count[l])
	}
}
