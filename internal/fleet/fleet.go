// Package fleet supplies the worker set the cluster coordinator
// schedules over. Three pieces cooperate:
//
//   - Registry: an HTTP endpoint workers self-register with. Each
//     registration carries an address plus the worker's module and
//     trace-format versions; liveness is a TTL refreshed by periodic
//     heartbeats, so a crashed worker simply ages out.
//   - Agent: the worker-side loop that registers, heartbeats at a
//     fraction of the TTL, and deregisters gracefully on drain.
//   - Membership: the read side. The cluster scheduler re-snapshots a
//     Membership throughout a sweep, so workers joining (or becoming
//     ready) mid-sweep pick up shards and a departed worker's shards are
//     stolen back. Static is the fixed-list Membership behind
//     `jrpm sweep -workers`.
//
// Placement ranks members for a content-addressed trace key by
// rendezvous (highest-random-weight) hashing, which keeps replica
// placement stable under churn: removing one member only moves the
// keys that member held.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
)

// Member is one worker in the fleet.
type Member struct {
	// ID names the member. Workers default it to their advertised
	// address, which keeps IDs meaningful in logs and metrics.
	ID string `json:"id"`
	// Addr is the address other fleet nodes reach the member at
	// (host:port or http://host:port).
	Addr string `json:"addr"`
	// Module and TraceFormat mirror GET /v1/version; the registry
	// records them so operators can spot mixed-version fleets, and the
	// coordinator still hard-verifies per worker before dispatch.
	Module      string `json:"module,omitempty"`
	TraceFormat int    `json:"trace_format,omitempty"`
}

// Membership is a dynamic view of the live worker set. Implementations
// must be safe for concurrent use; the scheduler polls one for the
// whole duration of a sweep.
type Membership interface {
	Members(ctx context.Context) ([]Member, error)
}

// Static is a fixed address list as a Membership, the worker set of
// `jrpm sweep -workers`. Its snapshot never changes, so no member is
// ever retired; a member unreachable or draining when a sweep starts is
// re-probed on every membership tick and admitted once ready, like a
// registry member that joins mid-sweep. An empty Static is an empty
// fleet: the coordinator runs the grid locally.
type Static []string

// Members returns one member per address, in the configured order, so
// worker indices stay deterministic for affinity and tests.
func (s Static) Members(context.Context) ([]Member, error) {
	ms := make([]Member, 0, len(s))
	for _, addr := range s {
		if addr == "" {
			continue
		}
		ms = append(ms, Member{ID: addr, Addr: addr})
	}
	return ms, nil
}

// Placement ranks members for key by rendezvous hashing and returns the
// top n (all members when n exceeds the fleet). Every caller that
// agrees on the member set agrees on the ranking, with no coordination
// and no reshuffling beyond the keys a departed member actually held.
func Placement(key string, members []Member, n int) []Member {
	if n <= 0 || len(members) == 0 {
		return nil
	}
	type scored struct {
		m     Member
		score uint64
	}
	ranked := make([]scored, 0, len(members))
	for _, m := range members {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s", m.ID, key)
		ranked = append(ranked, scored{m: m, score: mix64(h.Sum64())})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].m.ID < ranked[j].m.ID
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]Member, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].m
	}
	return out
}

// mix64 is a 64-bit finalizer (murmur3 fmix64). FNV alone has weak
// avalanche in the tail bytes — keys that differ only in their last
// characters would barely reorder the ranking — so the raw sum gets a
// full mixing pass before scores are compared.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
