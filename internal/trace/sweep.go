package trace

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// SweepJob is one offline analysis configuration: replay the recorded
// event stream through a fresh comparator-bank model with this machine
// config and these runtime policies, then run selection.
type SweepJob struct {
	Cfg    hydra.Config
	Tracer core.Options
	Select profile.SelectOptions
}

// SweepOutcome is one job's result: the replayed tracer (its Results()
// table carries the raw per-loop counters), the full profile analysis,
// and the recording's summary trailer. A failed job carries only Job and
// Err.
type SweepOutcome struct {
	Job      SweepJob
	Tracer   *core.Tracer
	Analysis *profile.Analysis
	Summary  Summary
	Err      error
}

// Sweep analyzes one recorded trace under every job concurrently, with
// no VM execution and no shared mutable state. Job i belongs to worker
// i mod workers. Each worker decodes the recording once, a block of
// events at a time, and feeds every block to the comparator-bank model
// of each of its jobs in lockstep, so N hydra configurations cost one
// decode per worker plus N tracer passes — and only one block of decoded
// events per worker is ever in memory. prog must be the annotated
// program the trace was recorded from (enforced via the header hash).
// workers <= 0 uses GOMAXPROCS.
//
// Failures stay per job: a panic while building, feeding or analyzing
// one job's model fails that job alone, while a decode error fails every
// job still replaying, never leaving a partial Analysis. ctx is checked
// before each block; cancellation fails the jobs not yet finished with
// context.Cause(ctx).
//
// This is the record-once / analyze-many primitive behind
// Compiled.ReplayProfile (a one-job sweep), the internal/experiments
// ablations and the jrpmd trace-analysis job kind.
func Sweep(ctx context.Context, prog *tir.Program, data []byte, jobs []SweepJob, workers int) []SweepOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	out := make([]SweepOutcome, len(jobs))
	for i := range jobs {
		out[i].Job = jobs[i]
	}
	want := ProgramHash(prog)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var mine []*SweepOutcome
		for i := w; i < len(jobs); i += workers {
			mine = append(mine, &out[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replayJobs(ctx, prog, want, data, mine)
		}()
	}
	wg.Wait()
	return out
}

// replayJobs is one sweep worker: it decodes data once into the tracer
// of every outcome in jobs, then runs selection for each job still
// standing.
func replayJobs(ctx context.Context, prog *tir.Program, want [32]byte, data []byte, jobs []*SweepOutcome) {
	failAll := func(err error) {
		for _, o := range jobs {
			if o.Err == nil {
				*o = SweepOutcome{Job: o.Job, Err: err}
			}
		}
	}
	hdr, err := parseHeader(data)
	if err == nil && hdr.ProgramHash != want {
		err = ErrHashMismatch
	}
	if err != nil {
		failAll(err)
		return
	}
	for _, o := range jobs {
		guard(o, func() { o.Tracer = core.NewTracer(prog, o.Job.Cfg, o.Job.Tracer) })
	}

	d := decoder{buf: data, pos: headerLen}
	d.bindLoops(len(prog.Loops))
	blk := make([]vmsim.Event, blockSize)
	for !d.done {
		if ctx.Err() != nil {
			failAll(context.Cause(ctx))
			return
		}
		n, err := d.decode(blk, false)
		if err != nil {
			failAll(err)
			return
		}
		live := 0
		for _, o := range jobs {
			if o.Err == nil {
				guard(o, func() { o.Tracer.ConsumeEvents(blk[:n]) })
			}
			if o.Err == nil {
				live++
			}
		}
		if live == 0 {
			return
		}
	}
	for _, o := range jobs {
		if o.Err == nil {
			guard(o, func() {
				a := profile.BuildTree(prog, o.Tracer, d.sum.TracedCycles, d.sum.CleanCycles, o.Job.Cfg)
				a.Select(o.Job.Select)
				o.Analysis, o.Summary = a, d.sum
			})
		}
	}
}

// guard runs one job's step, recovering a panic (a pathological config
// blowing up tracer construction, say) into that job's Err and dropping
// its partial results, so one bad configuration cannot poison the others
// sharing the worker's decode.
func guard(o *SweepOutcome, step func()) {
	defer func() {
		if r := recover(); r != nil {
			*o = SweepOutcome{Job: o.Job, Err: fmt.Errorf("sweep job panicked: %v", r)}
		}
	}()
	step()
}
