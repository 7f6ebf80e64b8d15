package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/corpus"
	"jrpm/internal/lang"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// program is one generated corpus program and the statistics every
// profile of it must reproduce.
type program struct {
	id, sha string
	src     string
	in      jrpm.Input
	want    stats
}

// corpusCold compiles and profiles one generated program per op, from
// scratch, on the native tier — what `jrpm profile` does by default.
type corpusCold struct {
	progs []*program
}

// allLoops returns o with every loop of c on the native tier.
func allLoops(c *jrpm.Compiled, o jrpm.Options) jrpm.Options {
	o.NativeLoops = nil
	for i := range c.Clean.Loops {
		o.NativeLoops = append(o.NativeLoops, c.Clean.Loops[i].ID)
	}
	return o
}

func setupCorpusCold(ctx context.Context, seed uint64, exp *expectTable, _ bool, a *acc) (bench, setupInfo, error) {
	var info setupInfo
	spec := corpus.SmokeSpec()
	spec.Seed = seed
	t0 := time.Now()
	man, gen, err := corpus.Compile(spec)
	if err != nil {
		return nil, info, err
	}
	a.add("corpus.generate_ms", ms(time.Since(t0)))
	table, pinned := exp.Corpus[strconv.FormatUint(seed, 10)]
	if !pinned {
		fmt.Fprintf(os.Stderr, "perfbench: warning: seed %d is not pinned in expected.json; corpus results are checked by the native-versus-predecode witness only\n", seed)
	}
	info.unpinned = !pinned
	if pinned {
		info.witnesses++
		if err := same("corpus fingerprint", table.Fingerprint, man.Fingerprint); err != nil {
			info.failures = append(info.failures, err)
		}
	}
	s := &corpusCold{}
	for i, g := range gen {
		e := man.Programs[i]
		p := &program{id: e.ID, sha: e.SHA256, src: g.Source, in: g.Input()}
		c, err := jrpm.Compile(p.src, opts())
		if err != nil {
			return nil, info, fmt.Errorf("%s: %w", p.id, err)
		}
		// Witness: the native tier and the predecoded interpreter must
		// agree exactly on every simulated statistic.
		nat, err := c.Profile(ctx, p.in, allLoops(c, opts()))
		if err != nil {
			return nil, info, fmt.Errorf("%s native: %w", p.id, err)
		}
		pre, err := c.Profile(ctx, p.in, opts())
		if err != nil {
			return nil, info, fmt.Errorf("%s predecode: %w", p.id, err)
		}
		p.want = statsOf(pre)
		info.witnesses++
		if err := same(p.id+" native vs predecode", p.want, statsOf(nat)); err != nil {
			info.failures = append(info.failures, err)
		}
		if pinned {
			info.witnesses++
			if d := p.want.digest(); d != table.Programs[p.id] {
				info.failures = append(info.failures, fmt.Errorf("%s expected: stats %+v have digest %s, want %s", p.id, p.want, d, table.Programs[p.id]))
			}
		}
		s.progs = append(s.progs, p)
	}
	return s, info, nil
}

func (s *corpusCold) items() []string {
	out := make([]string, len(s.progs))
	for i, p := range s.progs {
		out[i] = p.id + ":" + p.sha
	}
	return out
}

func (s *corpusCold) clients() int { return 1 }

func (s *corpusCold) close() {}

// run compiles and profiles p on the native tier.
func (s *corpusCold) run(ctx context.Context, p *program) (*jrpm.Compiled, *jrpm.ProfileResult, time.Time, error) {
	c, err := jrpm.Compile(p.src, opts())
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	mid := time.Now()
	pr, err := c.Profile(ctx, p.in, allLoops(c, opts()))
	if err != nil {
		return nil, nil, mid, err
	}
	return c, pr, mid, same(p.id, p.want, statsOf(pr))
}

func (s *corpusCold) op(ctx context.Context, item int) error {
	_, _, _, err := s.run(ctx, s.progs[item])
	return err
}

// traced times one op, then reruns its compile stages (lex/parse/
// codegen, annotation, predecode — the calls jrpm.Compile makes) and
// its selection, and lays them out inside the op's Compile and Profile
// spans. The Profile span's own time is charged to the native tier.
// A predecode-only Profile of the same program is timed alongside for
// the native-versus-predecode comparison.
func (s *corpusCold) traced(ctx context.Context, item int, id int64, rec *recorder, a *acc) (time.Duration, error) {
	p := s.progs[item]
	t0 := time.Now()
	c, pr, mid, err := s.run(ctx, p)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	root := rec.real(id, -1, "op", "", t0, t1)
	cs := rec.real(id, root, "jrpm.Compile", "", t0, mid)
	ps := rec.real(id, root, "Compiled.Profile", "native", mid, t1)

	rr := rec.real(id, -1, "rerun", "", t1, t1)
	var dLang, dAnnot, dPre time.Duration
	call := func(name, layer string, d *time.Duration, f func() error) error {
		c0 := time.Now()
		err := f()
		c1 := time.Now()
		rec.real(id, rr, name, layer, c0, c1)
		*d += c1.Sub(c0)
		return err
	}
	for _, annot := range []annotate.Options{{}, opts().Annot} {
		var prog *tir.Program
		if err := call("lang.Compile", "lang", &dLang, func() (err error) { prog, err = lang.Compile(p.src); return err }); err != nil {
			return 0, err
		}
		if err := call("annotate.Apply", "annotate", &dAnnot, func() error { _, err := annotate.Apply(prog, annot); return err }); err != nil {
			return 0, err
		}
		call("vmsim.Predecode", "vmsim", &dPre, func() error { vmsim.Predecode(prog); return nil })
	}
	var dSelect, dPredecodeProfile time.Duration
	call("profile.BuildTree+Select", "profile", &dSelect, func() error { reselect(pr); return nil })
	if err := call("Compiled.Profile", "vmsim", &dPredecodeProfile, func() error {
		pp, err := c.Profile(ctx, p.in, opts())
		if err != nil {
			return err
		}
		return same(p.id+" predecode rerun", p.want, statsOf(pp))
	}); err != nil {
		return 0, err
	}
	rec.finish(rr, time.Now())

	rec.layout(id, cs, rec.at(t0), []stage{
		{name: "lang.compile", layer: "lang", d: dLang},
		{name: "annotate.apply", layer: "annotate", d: dAnnot},
		{name: "vmsim.predecode", layer: "vmsim", d: dPre},
	})
	rec.layout(id, ps, rec.at(mid), []stage{{name: "profile.select", layer: "profile", d: dSelect}})

	a.add("lang_ms", ms(dLang))
	a.add("annotate_ms", ms(dAnnot))
	a.add("annotations", float64(c.AnnotationCount))
	a.add("predecode_ms", ms(dPre))
	a.add("select_ms", ms(dSelect))
	a.add("native_ms", ms(t1.Sub(mid)))
	a.add("predecode_profile_ms", ms(dPredecodeProfile))
	a.add("loops_compiled", float64(len(pr.Native)))
	a.add("loops_rejected", float64(len(pr.NativeRejected)))
	for _, n := range pr.Native {
		a.add("deopts", float64(n.Deopts))
	}
	return t1.Sub(t0), nil
}

func (s *corpusCold) layers(a *acc, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"lang.compile_ms":       a.get("lang_ms") / n,
		"annotate.apply_ms":     a.get("annotate_ms") / n,
		"annotate.annotations":  a.get("annotations") / n,
		"vmsim.predecode_ms":    a.get("predecode_ms") / n,
		"vmsim.profile_ms":      a.get("predecode_profile_ms") / n,
		"profile.select_ms":     a.get("select_ms") / n,
		"native.profile_ms":     a.get("native_ms") / n,
		"native.over_predecode": a.ratio("native_ms", "predecode_profile_ms"),
		"native.loops_compiled": a.get("loops_compiled") / n,
		"native.loops_rejected": a.get("loops_rejected") / n,
		"native.deopts":         a.get("deopts") / n,
	}
}
