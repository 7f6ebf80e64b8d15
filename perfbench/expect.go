package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"jrpm"
	"jrpm/internal/profile"
)

// expected.json is the table every op's simulated statistics must
// equal. Regenerate it with `go run . -write-expected expected.json`
// from this directory, and only when a change to the simulator is meant
// to change simulated results.
//
//go:embed expected.json
var expectedJSON []byte

// stats is the simulated outcome of one profile: everything that must
// not move when only speed changes.
type stats struct {
	Clean       int64    `json:"clean_cycles"`
	Traced      int64    `json:"traced_cycles"`
	Events      [5]int64 `json:"events"` // heap loads, heap stores, local annots, loop annots, read-stats
	Annotations int      `json:"annotations"`
	Selected    []int    `json:"selected"`
	Predicted   float64  `json:"predicted_speedup"`
}

// kernelRow is one Table 6 kernel: its profile plus the TLS simulation
// of the selected loops.
type kernelRow struct {
	stats
	Actual     float64 `json:"actual_speedup"`
	Threads    int64   `json:"tls_threads"`
	Violations int64   `json:"tls_violations"`
}

// cellRow is one sweep cell's selection.
type cellRow struct {
	Banks     int     `json:"banks"`
	History   int     `json:"heap_store_lines"`
	Selected  []int   `json:"selected"`
	Predicted float64 `json:"predicted_speedup"`
}

// corpusTable holds one pinned seed's corpus results: the manifest
// fingerprint and, by program id, the digest of the program's stats.
type corpusTable struct {
	Fingerprint string            `json:"fingerprint"`
	Programs    map[string]string `json:"programs"`
}

type expectTable struct {
	Kernels map[string]kernelRow   `json:"kernels"`
	Cells   map[string][]cellRow   `json:"cells"`
	Corpus  map[string]corpusTable `json:"corpus"` // keyed by decimal seed, for pinnedSeeds
}

func loadExpected() (*expectTable, error) {
	var t expectTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &t, nil
}

// selected returns a's Equation 2 selection as a sorted, non-nil slice.
func selected(a *profile.Analysis) []int {
	s := append([]int{}, a.SelectedLoopIDs()...)
	sort.Ints(s)
	return s
}

func statsOf(pr *jrpm.ProfileResult) stats {
	return stats{
		Clean:       pr.CleanCycles,
		Traced:      pr.TracedCycles,
		Events:      [5]int64{pr.HeapLoads, pr.HeapStores, pr.LocalAnnots, pr.LoopAnnots, pr.ReadStats},
		Annotations: pr.AnnotationCount,
		Selected:    selected(pr.Analysis),
		Predicted:   pr.Analysis.PredictedSpeedup(),
	}
}

// digest is a short hash of s's JSON form: the expected table pins
// corpus programs by digest to stay small across many seeds.
func (s stats) digest() string {
	data, _ := json.Marshal(s) // plain data; cannot fail
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func (s stats) events() int64 {
	var n int64
	for _, e := range s.Events {
		n += e
	}
	return n
}

// same reports a mismatch between want and got as an error naming what.
func same(what string, want, got any) error {
	if reflect.DeepEqual(want, got) {
		return nil
	}
	w, _ := json.Marshal(want) // both sides are plain data; Marshal cannot fail
	g, _ := json.Marshal(got)
	return fmt.Errorf("%s: got %s, want %s", what, g, w)
}
