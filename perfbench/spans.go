package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share
// Op; Parent indexes the span that caused this one (-1 for an op's
// root). Layer names the module the time is charged to; a span with no
// layer is glue (the op itself, or a wrapper around a root-API call),
// and its self time is the op's unattributed residual.
//
// Real spans bracket a call the benchmark made. Laid-out spans carry
// the duration of a stage rerun through the direct pipeline calls,
// placed back to back inside the real span whose time they explain.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer,omitempty"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"` // since the recorder's epoch
	End     int64  `json:"end_ns"`
	LaidOut bool   `json:"laid_out,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add appends s and returns its index, for use as a later Parent.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// real records a span over [from, to] for a call the benchmark made.
func (r *recorder) real(op int64, parent int, name, layer string, from, to time.Time) int {
	return r.add(span{Name: name, Layer: layer, Op: op, Parent: parent, Start: r.at(from), End: r.at(to)})
}

// finish sets the end of span idx, for a span opened before its
// children were known.
func (r *recorder) finish(idx int, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[idx].End = r.at(t)
}

// stage is one rerun measurement to lay out inside a real span.
type stage struct {
	name, layer string
	d           time.Duration
	// children are laid out back to back from the stage's own start.
	children []stage
}

// layout places stages back to back from start under parent and returns
// the instant after the last one.
func (r *recorder) layout(op int64, parent int, start int64, stages []stage) int64 {
	for _, st := range stages {
		end := start + st.d.Nanoseconds()
		idx := r.add(span{Name: st.name, Layer: st.layer, Op: op, Parent: parent, Start: start, End: end, LaidOut: true})
		r.layout(op, idx, start, st.children)
		start = end
	}
	return start
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval covered by the union of its children, each clipped
// to the parent. Children may overlap one another (parallel lanes);
// covered time is counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64 = 0, s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotals sums self time (ns) and span counts per layer over the
// trees rooted at an "op" span; glue spans (no layer) are summed under
// "". The op roots' durations are summed into opTotal. Trees with any
// other root hold rerun calls made outside the op's time and are left
// out. A parent always precedes its children in spans.
func layerTotals(spans []span) (self map[string]int64, count map[string]int, opTotal int64) {
	self, count = map[string]int64{}, map[string]int{}
	st := selfTimes(spans)
	inOp := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			inOp[i] = s.Name == "op"
		} else {
			inOp[i] = inOp[s.Parent]
		}
		if !inOp[i] {
			continue
		}
		self[s.Layer] += st[i]
		count[s.Layer]++
		if s.Parent < 0 {
			opTotal += s.dur()
		}
	}
	return self, count, opTotal
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
