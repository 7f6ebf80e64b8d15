package jrpm_test

import (
	"context"
	"reflect"
	"testing"

	"jrpm"
	"jrpm/internal/jit"
	"jrpm/internal/tls"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// TestSpeculateStreamMatchesRecorded: SpeculateLoops, which simulates each
// iteration as the run closes it, must report exactly what tls.Simulate
// reports over the entries a keep-entries Recorder captures from its own
// run — for every workload, with the Equation 2 set and with each single
// loop jit.Build accepts. The keep-entries Recorder must capture the same
// entries whether the VM hands it event batches or, through a wrapper that
// hides ConsumeEvents, one vmsim.Deliver call per event.
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
			record := func(sel []int, perEvent bool) []*tls.Entry {
				rec := tls.NewRecorder(pr.Annotated, sel)
				var l vmsim.Listener = rec
				if perEvent {
					l = struct{ vmsim.Listener }{rec}
				}
				if err := jrpm.RunListener(context.Background(), in, pr, l); err != nil {
					t.Fatal(err)
				}
				return rec.Entries
			}
			for _, sel := range sets {
				res, err := jrpm.SpeculateLoops(context.Background(), in, pr, sel)
				if err != nil {
					t.Fatalf("loops %v: %v", sel, err)
				}
				batched := record(sel, false)
				if want := tls.Simulate(batched, cfg); !reflect.DeepEqual(res.Loops, want) {
					t.Errorf("loops %v: streamed results differ from Simulate over the recorded entries", sel)
				}
				if perEvent := record(sel, true); !reflect.DeepEqual(batched, perEvent) {
					t.Errorf("loops %v: batched and per-event recorders captured different entries", sel)
				}
			}
		})
	}
}
