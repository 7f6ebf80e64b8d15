package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPct is the percentile every tail metric reports: the highest
// whole percentile that leaves minBeyond samples beyond it in a round
// of roundSize ops. It is fixed so that the metric means the same thing
// on every commit.
const tailPct = 98

// minBeyond is how many samples must lie above the tail percentile for
// it to be reported as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted, which
// must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// beyond is the number of samples that rank above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// validName reports whether name is a legal metric, workload or layer
// name: 1 to 64 characters from [A-Za-z0-9_.-], starting with a letter
// or a digit.
func validName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("name %q: length must be 1..64", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("name %q: must start with a letter or a digit", name)
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return fmt.Errorf("name %q: character %q outside [A-Za-z0-9_.-]", name, c)
		}
	}
	return nil
}

// sample is one completed op: when it ended, in seconds since its phase
// began, and its latency in ms.
type sample struct{ end, lat float64 }

// roundSize is the number of consecutive ops in one round: the fewest
// that leave minBeyond samples beyond the tail percentile.
const roundSize = 500

// summary is a phase's end-to-end figures: each is the median over
// rounds of that round's figure.
type summary struct {
	throughput, p50, tail float64
	rounds                int
}

// summarize splits samples, in completion order, into rounds of
// roundSize consecutive ops (the last round absorbs any remainder) and
// returns the median over rounds of each round's throughput, median and
// tail latency. Medians over rounds keep a burst of host interference
// confined to one round from moving the result.
func summarize(samples []sample) summary {
	rounds := max(len(samples)/roundSize, 1)
	var thr, p50, tail []float64
	prevEnd := 0.0
	for r := 0; r < rounds; r++ {
		chunk := samples[r*roundSize:]
		if r < rounds-1 {
			chunk = chunk[:roundSize]
		}
		if len(chunk) == 0 {
			break
		}
		end := chunk[len(chunk)-1].end
		if end > prevEnd {
			thr = append(thr, float64(len(chunk))/(end-prevEnd))
		}
		prevEnd = end
		lat := make([]float64, len(chunk))
		for i, s := range chunk {
			lat[i] = s.lat
		}
		sort.Float64s(lat)
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, tailPct))
	}
	return summary{throughput: median(thr), p50: median(p50), tail: median(tail), rounds: len(p50)}
}
