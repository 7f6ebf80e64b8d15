package jrpm_test

import (
	"context"
	"reflect"
	"testing"

	"jrpm"
	"jrpm/internal/jit"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// TestSpeculateStreamMatchesRecorded: SpeculateLoops, which simulates each
// iteration as the run closes it, must report exactly what tls.Simulate
// reports over the entries a keep-entries Recorder captures from its own
// run — for every workload, with the Equation 2 set and with each single
// loop jit.Build accepts.
func TestSpeculateStreamMatchesRecorded(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			in := w.NewInput(0.2)
			pr, err := jrpm.Profile(w.Source, in, jrpm.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			cfg := pr.Opts.Cfg
			sets := [][]int{pr.Analysis.SelectedLoopIDs()}
			for id := range pr.Annotated.Loops {
				if _, err := jit.Build(pr.Annotated, []int{id}, cfg); err == nil {
					sets = append(sets, []int{id})
				}
			}
			record := func(sel []int) []*tls.Entry {
				rec := tls.NewRecorder(pr.Annotated, sel)
				if err := jrpm.RunConsumer(context.Background(), in, pr, rec); err != nil {
					t.Fatal(err)
				}
				return rec.Entries
			}
			for _, sel := range sets {
				res, err := jrpm.SpeculateLoops(context.Background(), in, pr, sel)
				if err != nil {
					t.Fatalf("loops %v: %v", sel, err)
				}
				if want := tls.Simulate(record(sel), cfg); !reflect.DeepEqual(res.Loops, want) {
					t.Errorf("loops %v: streamed results differ from Simulate over the recorded entries", sel)
				}
			}
		})
	}
}
