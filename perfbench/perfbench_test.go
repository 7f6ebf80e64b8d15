package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	// p98 is the highest percentile of a round with minBeyond samples
	// beyond it.
	if got := beyond(roundSize, tailPct); got < minBeyond {
		t.Errorf("a round of %d ops leaves %d beyond p%d, want >= %d", roundSize, got, tailPct, minBeyond)
	}
	if got := beyond(roundSize, tailPct+1); got >= minBeyond {
		t.Errorf("p%d of a %d-op round leaves %d beyond, so p%d is not the highest qualifying percentile", tailPct+1, roundSize, got, tailPct)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{500, 98, 10}, {499, 98, 9}, {1000, 99, 10}, {1, 50, 0}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 98: 98, 99: 99, 100: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummarizeTakesMedianOverRounds(t *testing.T) {
	// Three rounds of 500 ops, 1 ms apart; the middle round is slow
	// (latency 10 ms, 10 ms apart). Medians over rounds ignore it.
	var ss []sample
	end := 0.0
	for r := 0; r < 3; r++ {
		lat, gap := 1.0, 0.001
		if r == 1 {
			lat, gap = 10, 0.010
		}
		for i := 0; i < roundSize; i++ {
			end += gap
			ss = append(ss, sample{end: end, lat: lat})
		}
	}
	ss = append(ss, sample{end: end + 0.001, lat: 1}) // remainder joins the last round
	got := summarize(ss)
	if got.rounds != 3 || got.p50 != 1 || got.tail != 1 {
		t.Fatalf("summarize = %+v, want 3 rounds with p50 = tail = 1", got)
	}
	if got.throughput < 999 || got.throughput > 1001 {
		t.Fatalf("throughput = %v, want 1000/s", got.throughput)
	}
	if one := summarize(ss[:10]); one.rounds != 1 || one.p50 != 1 {
		t.Fatalf("short phase: %+v, want one round", one)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: "x", Parent: 0, Start: 10, End: 40},
		{Name: "b", Layer: "y", Parent: 0, Start: 30, End: 60},  // overlaps a: union 10..60
		{Name: "c", Layer: "y", Parent: 0, Start: 90, End: 130}, // clipped to 90..100
		{Name: "a1", Layer: "z", Parent: 1, Start: 15, End: 25},
	}
	want := []int64{100 - 60, 30 - 10, 30, 40, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestLayerTotalsSkipsRerunTrees(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.epoch.Add(time.Duration(ns)) }
	root := r.real(1, -1, "op", "", at(0), at(100))
	end := r.layout(1, root, 10, []stage{
		{name: "vmsim.traced", layer: "vmsim", d: 50, children: []stage{{name: "core.consume", layer: "core", d: 20}}},
		{name: "profile.select", layer: "profile", d: 5},
	})
	if end != 65 {
		t.Fatalf("layout ended at %d, want 65", end)
	}
	rr := r.real(1, -1, "rerun", "", at(100), at(300))
	r.real(1, rr, "Compiled.Profile", "vmsim", at(100), at(300))

	self, count, opTotal := layerTotals(r.spans)
	want := map[string]int64{"": 100 - 55, "vmsim": 30, "core": 20, "profile": 5}
	if !reflect.DeepEqual(self, want) || opTotal != 100 {
		t.Fatalf("layerTotals = %v, op %d; want %v, op 100", self, opTotal, want)
	}
	if count["vmsim"] != 1 {
		t.Fatalf("vmsim spans = %d, want 1 (the rerun tree is not part of the op)", count["vmsim"])
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != opTotal {
		t.Fatalf("self times sum to %d, want the op's %d", sum, opTotal)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"p50_ms", "vmsim.traced_ns_per_event", "suite-jobs", "9x"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", string(long)} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the names the benchmark
// prints are valid, unique, and exactly the ones BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct{ Name, Unit string }, ours []metric) {
		seen := map[string]bool{}
		var got, want []string
		for _, m := range ours {
			if err := validName(m.name); err != nil {
				t.Error(err)
			}
			if seen[m.name] {
				t.Errorf("%s: %s listed twice", what, m.name)
			}
			seen[m.name] = true
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range listed {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: benchmark prints %v, BENCHMARK.json lists %v", what, got, want)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var defs []string
	for _, d := range workloadDefs {
		defs = append(defs, d.name)
	}
	if !reflect.DeepEqual(names, defs) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, defs)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	s1 := newSchedule("suite-jobs", 1, items)
	s2 := newSchedule("suite-jobs", 1, items)
	if s1.fingerprint() != s2.fingerprint() || !reflect.DeepEqual(s1.order, s2.order) {
		t.Fatal("same seed gave different schedules")
	}
	if s1.fingerprint() == newSchedule("suite-jobs", 2, items).fingerprint() {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
	if s1.fingerprint() == newSchedule("corpus-cold", 1, items).fingerprint() {
		t.Fatal("two workloads share a schedule")
	}
	perm := append([]int(nil), s1.order...)
	sort.Ints(perm)
	for i, v := range perm {
		if v != i {
			t.Fatalf("order %v is not a permutation", s1.order)
		}
	}
	for i := 0; i < 3*len(items); i++ {
		if s1.at(i) != s1.order[i%len(items)] {
			t.Fatalf("op %d does not cycle through the order", i)
		}
	}
}
