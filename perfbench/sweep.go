package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"jrpm"
	"jrpm/internal/hydra"
	"jrpm/internal/workloads"
)

// recording is one kernel's traced run captured once at setup.
type recording struct {
	name string
	c    *jrpm.Compiled
	data []byte
	live stats
	want []cellRow
	// Traced runs only: the live Profile and the ProfileRecord of the
	// same kernel, timed at setup.
	liveMs, recordMs float64
}

// sweepReplay analyzes one recording per op over the bank/history grid.
type sweepReplay struct {
	recs []*recording
	cfgs []hydra.Config
}

func setupSweepReplay(ctx context.Context, _ uint64, exp *expectTable, traceMode bool, _ *acc) (bench, setupInfo, error) {
	var info setupInfo
	s := &sweepReplay{cfgs: sweepGrid()}
	def := []hydra.Config{hydra.DefaultConfig()}
	for _, w := range workloads.All() {
		name := w.Meta.Name
		want, ok := exp.Cells[name]
		if !ok || len(want) != len(s.cfgs) {
			return nil, info, fmt.Errorf("expected table has no %d-cell sweep for %s", len(s.cfgs), name)
		}
		in := w.NewInput(1)
		c, err := jrpm.Compile(w.Source, opts())
		if err != nil {
			return nil, info, err
		}
		var liveMs float64
		if traceMode {
			t0 := time.Now()
			if _, err := c.Profile(ctx, in, opts()); err != nil {
				return nil, info, err
			}
			liveMs = ms(time.Since(t0))
		}
		var buf bytes.Buffer
		t0 := time.Now()
		pr, err := c.ProfileRecord(ctx, in, opts(), &buf)
		if err != nil {
			return nil, info, err
		}
		r := &recording{name: name, c: c, data: buf.Bytes(), live: statsOf(pr), want: want, liveMs: liveMs, recordMs: ms(time.Since(t0))}
		s.recs = append(s.recs, r)
		info.witnesses += 2
		if err := same(name+" live profile", exp.Kernels[name].stats, r.live); err != nil {
			info.failures = append(info.failures, err)
		}
		// Witness: the default-machine cell of a sweep must reproduce
		// the live profile the recording came from, loop by loop.
		out := c.SweepTrace(ctx, r.data, def, opts(), 1)[0]
		if out.Err != nil {
			return nil, info, out.Err
		}
		if err := same(name+" default cell vs live profile",
			[]any{r.live.Selected, r.live.Predicted, estimates(pr.Analysis)},
			[]any{selected(out.Analysis), out.Analysis.PredictedSpeedup(), estimates(out.Analysis)}); err != nil {
			info.failures = append(info.failures, err)
		}
	}
	return s, info, nil
}

func (s *sweepReplay) items() []string {
	out := make([]string, len(s.recs))
	for i, r := range s.recs {
		out[i] = r.name
	}
	return out
}

// clients is 1: each op already fans out over nproc sweep workers.
func (s *sweepReplay) clients() int { return 1 }

func (s *sweepReplay) close() {}

func (s *sweepReplay) check(r *recording, j int, selectedLoops []int, predicted float64) error {
	want := r.want[j]
	got := cellRow{Banks: s.cfgs[j].Tracer.Banks, History: s.cfgs[j].Tracer.HeapStoreLines, Selected: selectedLoops, Predicted: predicted}
	return same(fmt.Sprintf("%s cell banks=%d history=%d", r.name, got.Banks, got.History), want, got)
}

func (s *sweepReplay) op(ctx context.Context, item int) error {
	r := s.recs[item]
	for j, out := range r.c.SweepTrace(ctx, r.data, s.cfgs, opts(), runtime.NumCPU()) {
		if out.Err != nil {
			return out.Err
		}
		if err := s.check(r, j, selected(out.Analysis), out.Analysis.PredictedSpeedup()); err != nil {
			return err
		}
	}
	return nil
}

// traced times one sweep, then reruns each cell serially — decode,
// replay, selection — and lays the cells out in nproc lanes from the
// sweep's start, cell j in lane j mod nproc, as the sweep's workers
// take them.
func (s *sweepReplay) traced(ctx context.Context, item int, id int64, rec *recorder, a *acc) (time.Duration, error) {
	r := s.recs[item]
	workers := runtime.NumCPU()
	t0 := time.Now()
	outs := r.c.SweepTrace(ctx, r.data, s.cfgs, opts(), workers)
	t1 := time.Now()
	for j, out := range outs {
		if out.Err != nil {
			return 0, out.Err
		}
		if err := s.check(r, j, selected(out.Analysis), out.Analysis.PredictedSpeedup()); err != nil {
			return 0, err
		}
	}
	root := rec.real(id, -1, "op", "", t0, t1)
	rr := rec.real(id, -1, "rerun", "", t1, t1)
	lanes := make([]int64, workers)
	for i := range lanes {
		lanes[i] = rec.at(t0)
	}
	numLoops := len(r.c.Annotated.Loops)
	for j, cfg := range s.cfgs {
		c0 := time.Now()
		dDecode, events, err := decode(r.data, numLoops)
		if err != nil {
			return 0, err
		}
		c1 := time.Now()
		o := opts()
		o.Cfg = cfg
		rp, err := r.c.ReplayProfile(r.data, o)
		if err != nil {
			return 0, err
		}
		c2 := time.Now()
		dSelect := reselect(rp)
		c3 := time.Now()
		rec.real(id, rr, "trace.Reader.Next", "trace", c0, c1)
		rec.real(id, rr, "Compiled.ReplayProfile", "", c1, c2)
		rec.real(id, rr, "profile.BuildTree+Select", "profile", c2, c3)
		if err := s.check(r, j, selected(rp.Analysis), rp.Analysis.PredictedSpeedup()); err != nil {
			return 0, err
		}
		dReplay := c2.Sub(c1)
		dConsume := pos(dReplay - dDecode - dSelect)
		lanes[j%workers] = rec.layout(id, root, lanes[j%workers], []stage{
			{name: "trace.decode", layer: "trace", d: dDecode},
			{name: "core.consume", layer: "core", d: dConsume},
			{name: "profile.select", layer: "profile", d: dSelect},
		})
		a.add("decode_ms", ms(dDecode))
		a.add("events", float64(events))
		a.add("replay_ms", ms(dReplay))
		a.add("consume_ms", ms(dConsume))
		a.add("select_ms", ms(dSelect))
		a.add("live_ms", r.liveMs)
	}
	rec.finish(rr, time.Now())
	a.add("encode_ms", r.recordMs-r.liveMs)
	a.add("bytes", float64(len(r.data)))
	a.add("rec_events", float64(r.live.events()))
	return t1.Sub(t0), nil
}

func (s *sweepReplay) layers(a *acc, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"trace.decode_ms":           a.get("decode_ms") / n,
		"trace.decode_ns_per_event": a.ratio("decode_ms", "events") * 1e6,
		"trace.replay_ms":           a.get("replay_ms") / n,
		"trace.replay_over_live":    a.ratio("replay_ms", "live_ms"),
		"trace.encode_ms":           a.get("encode_ms") / n,
		"trace.bytes_per_event":     a.ratio("bytes", "rec_events"),
		"core.consume_ms":           a.get("consume_ms") / n,
		"core.ns_per_event":         a.ratio("consume_ms", "events") * 1e6,
		"profile.select_ms":         a.get("select_ms") / n,
	}
}
