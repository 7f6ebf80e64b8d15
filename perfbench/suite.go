package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"jrpm"
	"jrpm/internal/service"
	"jrpm/internal/tls"
	"jrpm/internal/trace"
	"jrpm/internal/workloads"
)

// kernel is one Table 6 program at scale 1.0 with its expected results.
type kernel struct {
	w    *workloads.Workload
	in   jrpm.Input
	c    *jrpm.Compiled
	want kernelRow
	// Set in traced runs only: the kernel's recording and the TLS
	// recorder's entries for its selected loops.
	data    []byte
	entries []*tls.Entry
}

// suiteJobs submits the 26 kernels as speculate jobs to an in-process
// service.Pool with nproc workers from nproc-1 closed-loop clients (at
// least one). With as many clients as CPUs the job rate moved between
// about 80 and 111 jobs/s from one run to the next on a 2-vCPU host,
// while one client, interleaved with those runs, stayed within about
// 10%; the spare CPU absorbs the collector and the pool's bookkeeping.
type suiteJobs struct {
	pool *service.Pool
	ks   []*kernel
}

func setupSuiteJobs(ctx context.Context, _ uint64, exp *expectTable, traceMode bool, _ *acc) (bench, setupInfo, error) {
	var info setupInfo
	s := &suiteJobs{pool: service.NewPool(service.Config{Workers: runtime.NumCPU()})}
	for _, w := range workloads.All() {
		want, ok := exp.Kernels[w.Meta.Name]
		if !ok {
			s.close()
			return nil, info, fmt.Errorf("expected table has no kernel %s", w.Meta.Name)
		}
		in := w.NewInput(1)
		c, err := jrpm.Compile(w.Source, opts())
		if err != nil {
			s.close()
			return nil, info, err
		}
		k := &kernel{w: w, in: in, c: c, want: want}
		s.ks = append(s.ks, k)
		info.witnesses++
		if err := checkKernel(w, c, in); err != nil {
			info.failures = append(info.failures, err)
		}
		if traceMode {
			if err := k.record(ctx); err != nil {
				s.close()
				return nil, info, err
			}
		}
	}
	// Warm the pool's artifact cache one job at a time, as the ops run:
	// the first job per kernel compiles, every later one hits.
	for i := range s.ks {
		info.witnesses++
		if err := s.op(ctx, i); err != nil {
			info.failures = append(info.failures, err)
		}
	}
	return s, info, nil
}

// record captures the kernel's traced run and, from the recording, the
// TLS recorder's per-iteration entries for its selected loops.
func (k *kernel) record(ctx context.Context) error {
	var buf bytes.Buffer
	pr, err := k.c.ProfileRecord(ctx, k.in, opts(), &buf)
	if err != nil {
		return err
	}
	k.data = buf.Bytes()
	r, err := trace.NewReader(bytes.NewReader(k.data))
	if err != nil {
		return err
	}
	rec := tls.NewRecorder(k.c.Annotated, pr.Analysis.SelectedLoopIDs())
	if _, err := r.Replay(rec); err != nil {
		return err
	}
	k.entries = rec.Entries
	return nil
}

// request is the jrpmd job a client submits for k.
func (k *kernel) request() service.Request {
	return service.Request{Workload: k.w.Meta.Name, Speculate: true}
}

func (s *suiteJobs) items() []string {
	out := make([]string, len(s.ks))
	for i, k := range s.ks {
		out[i] = k.w.Meta.Name
	}
	return out
}

func (s *suiteJobs) clients() int { return max(runtime.NumCPU()-1, 1) }

func (s *suiteJobs) close() { s.pool.Stop() }

// checkJob waits for j and compares its result with the kernel's row.
func (s *suiteJobs) checkJob(ctx context.Context, j *service.Job, k *kernel) error {
	v, err := j.Wait(ctx)
	if err != nil {
		return err
	}
	if v.State != service.StateDone || v.Result == nil {
		return fmt.Errorf("job %s: state %s: %s", v.ID, v.State, v.Error)
	}
	r := v.Result
	got := kernelRow{
		stats: stats{
			Clean:       r.CleanCycles,
			Traced:      r.TracedCycles,
			Events:      k.want.Events, // a job result carries no event counts
			Annotations: r.AnnotationCount,
			Selected:    append([]int{}, r.SelectedLoops...),
			Predicted:   r.PredictedSpeedup,
		},
		Actual: r.ActualSpeedup,
	}
	sort.Ints(got.Selected)
	for _, l := range r.Loops {
		got.Threads += l.Threads
		got.Violations += l.Violations
	}
	return same(k.w.Meta.Name+" job", k.want, got)
}

func (s *suiteJobs) op(ctx context.Context, item int) error {
	k := s.ks[item]
	j, err := s.pool.SubmitCtx(ctx, k.request())
	if err != nil {
		return err
	}
	return s.checkJob(ctx, j, k)
}

// traced times one job through the pool, then reruns its stages through
// the direct pipeline calls and lays them out inside the job's run
// span: clean run, traced run (with the tracer's share replayed from
// the recording as its child), selection, TLS recording run, and TLS
// simulation.
func (s *suiteJobs) traced(ctx context.Context, item int, id int64, rec *recorder, a *acc) (time.Duration, error) {
	k := s.ks[item]
	t0 := time.Now()
	j, err := s.pool.SubmitCtx(ctx, k.request())
	if err != nil {
		return 0, err
	}
	v, werr := j.Wait(ctx)
	t1 := time.Now()
	if werr != nil {
		return 0, werr
	}
	if err := s.checkJob(ctx, j, k); err != nil {
		return 0, err
	}
	root := rec.real(id, -1, "op", "", t0, t1)
	qs := rec.at(t0)
	qe := qs + int64(v.QueueWaitMs*1e6)
	rec.add(span{Name: "service.queue", Layer: "service.queue", Op: id, Parent: root, Start: qs, End: qe})
	run := rec.add(span{Name: "service.run", Layer: "service", Op: id, Parent: root, Start: qe, End: qe + int64(v.RunMs*1e6)})
	a.add("service.queue_wait_ms", v.QueueWaitMs)
	if v.Result.CacheHit {
		a.add("cache_hits", 1)
	}

	// Rerun the job's stages directly.
	rr := rec.real(id, -1, "rerun", "", t1, t1)
	call := func(name, layer string, f func() error) (time.Duration, error) {
		c0 := time.Now()
		err := f()
		c1 := time.Now()
		rec.real(id, rr, name, layer, c0, c1)
		return c1.Sub(c0), err
	}
	var pr *jrpm.ProfileResult
	var rp *jrpm.ProfileResult
	var sr *jrpm.SpeculateResult
	var dEvents int64
	cfg := opts().Cfg
	dClean, err := call("Compiled.RunClean", "vmsim", func() error { _, err := k.c.RunClean(ctx, k.in, cfg); return err })
	if err != nil {
		return 0, err
	}
	dProfile, err := call("Compiled.Profile", "", func() (err error) { pr, err = k.c.Profile(ctx, k.in, opts()); return err })
	if err != nil {
		return 0, err
	}
	if err := same(k.w.Meta.Name+" profile", k.want.stats, statsOf(pr)); err != nil {
		return 0, err
	}
	dSelect, _ := call("profile.BuildTree+Select", "profile", func() error { reselect(pr); return nil })
	dDecode, err := call("trace.Reader.Next", "trace", func() (err error) {
		_, dEvents, err = decode(k.data, len(k.c.Annotated.Loops))
		return err
	})
	if err != nil {
		return 0, err
	}
	dReplay, err := call("Compiled.ReplayProfile", "", func() (err error) { rp, err = k.c.ReplayProfile(k.data, opts()); return err })
	if err != nil {
		return 0, err
	}
	dReselect, _ := call("profile.BuildTree+Select", "profile", func() error { reselect(rp); return nil })
	dSpec, err := call("jrpm.SpeculateContext", "tls", func() (err error) { sr, err = jrpm.SpeculateContext(ctx, k.in, pr); return err })
	if err != nil {
		return 0, err
	}
	dSim, _ := call("tls.Simulate", "tls", func() error { tls.Simulate(k.entries, cfg); return nil })
	rec.finish(rr, time.Now())

	dTraced := pos(dProfile - dClean - dSelect)
	dConsume := pos(dReplay - dDecode - dReselect)
	rec.layout(id, run, qe, []stage{
		{name: "vmsim.clean", layer: "vmsim", d: dClean},
		{name: "vmsim.traced", layer: "vmsim", d: dTraced, children: []stage{{name: "core.consume", layer: "core", d: dConsume}}},
		{name: "profile.select", layer: "profile", d: dSelect},
		{name: "tls.record_run", layer: "tls", d: pos(dSpec - dSim)},
		{name: "tls.simulate", layer: "tls", d: dSim},
	})
	st := statsOf(pr)
	a.add("clean_ms", ms(dClean))
	a.add("clean_cycles", float64(st.Clean))
	a.add("traced_ms", ms(dTraced))
	a.add("events", float64(st.events()))
	a.add("decoded_events", float64(dEvents))
	a.add("consume_ms", ms(dConsume))
	a.add("select_ms", ms(dSelect))
	a.add("speculate_ms", ms(dSpec))
	a.add("simulate_ms", ms(dSim))
	for _, r := range sr.Loops {
		a.add("threads", float64(r.Threads))
		a.add("violations", float64(r.Violations))
	}
	return t1.Sub(t0), nil
}

func (s *suiteJobs) layers(a *acc, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"service.queue_wait_ms":     a.get("service.queue_wait_ms") / n,
		"service.cache_hit_frac":    a.get("cache_hits") / n,
		"service.rejected":          float64(s.pool.Metrics().JobsRejected.Load()),
		"vmsim.clean_ms":            a.get("clean_ms") / n,
		"vmsim.clean_ns_per_cycle":  a.ratio("clean_ms", "clean_cycles") * 1e6,
		"vmsim.traced_ms":           a.get("traced_ms") / n,
		"vmsim.traced_ns_per_event": a.ratio("traced_ms", "events") * 1e6,
		"vmsim.traced_over_clean":   a.ratio("traced_ms", "clean_ms"),
		"core.consume_ms":           a.get("consume_ms") / n,
		"core.ns_per_event":         a.ratio("consume_ms", "decoded_events") * 1e6,
		"profile.select_ms":         a.get("select_ms") / n,
		"tls.speculate_ms":          a.get("speculate_ms") / n,
		"tls.record_run_ms":         (a.get("speculate_ms") - a.get("simulate_ms")) / n,
		"tls.simulate_ms":           a.get("simulate_ms") / n,
		"tls.threads":               a.get("threads") / n,
		"tls.violations":            a.get("violations") / n,
	}
}
