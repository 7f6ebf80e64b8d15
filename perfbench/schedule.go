package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// schedule is a workload's op sequence: op i runs item order[i%len].
// It depends only on the workload name, the seed and the item list, so
// the same seed replays the same sequence on any machine.
type schedule struct {
	items []string // item identities, in the workload's own order
	order []int    // seeded permutation of item indices
}

// newSchedule shuffles items with a seeded Fisher–Yates (xorshift64*).
func newSchedule(workload string, seed uint64, items []string) schedule {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	s := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(workload) {
		s = (s ^ uint64(c)) * 0x100000001b3
	}
	if s == 0 {
		s = 1
	}
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return schedule{items: items, order: order}
}

// at returns the item index op i runs.
func (s schedule) at(i int) int { return s.order[i%len(s.order)] }

// fingerprint hashes the op sequence of one full cycle: the item
// identities in the order the ops visit them.
func (s schedule) fingerprint() string {
	h := sha256.New()
	for i := range s.order {
		fmt.Fprintf(h, "%s\x00", s.items[s.at(i)])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
