package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"jrpm"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// opts are the pipeline options every workload uses: the paper's setup.
func opts() jrpm.Options { return jrpm.DefaultOptions() }

// sweepGrid is the bank/history ablation grid sweep-replay analyzes
// each recording under; the last cell is the default machine.
func sweepGrid() []hydra.Config {
	var cfgs []hydra.Config
	for _, banks := range []int{1, 2, 4, 8} {
		for _, history := range []int{16, 192} {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = banks
			cfg.Tracer.HeapStoreLines = history
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// decode reads a whole recording the way a replay does (NewReader, then
// Next until EOF) and returns how long it took and how many events it
// held.
func decode(data []byte, numLoops int) (time.Duration, int64, error) {
	t0 := time.Now()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	r.NumLoops = numLoops
	var n int64
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, 0, err
		}
		n++
	}
	return time.Since(t0), n, nil
}

// reselect reruns loop-tree building and Equation 2 selection on a
// finished profile's tracer and returns how long that took.
func reselect(pr *jrpm.ProfileResult) time.Duration {
	t0 := time.Now()
	an := profile.BuildTree(pr.Annotated, pr.Tracer, pr.TracedCycles, pr.CleanCycles, pr.Opts.Cfg)
	an.Select(pr.Opts.Select)
	return time.Since(t0)
}

// checkKernel is a Table 6 kernel's independent witness: its clean
// program, run on a fresh VM, must pass the kernel's own output check.
func checkKernel(w *workloads.Workload, c *jrpm.Compiled, in jrpm.Input) error {
	if w.Check == nil {
		return nil
	}
	vm := vmsim.New(c.Clean)
	for _, name := range sortedKeys(in.Ints) {
		if err := vm.BindGlobalInts(name, in.Ints[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(in.Floats) {
		if err := vm.BindGlobalFloats(name, in.Floats[name]); err != nil {
			return err
		}
	}
	if err := vm.Run("main"); err != nil {
		return err
	}
	if err := w.Check(vm); err != nil {
		return fmt.Errorf("%s: clean run fails its output check: %w", w.Meta.Name, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// estimates maps each observed loop to its Equation 1 estimate.
func estimates(a *profile.Analysis) map[int]float64 {
	out := map[int]float64{}
	for id, n := range a.Nodes {
		out[id] = n.Est.Speedup
	}
	return out
}
