package tls

import "math/bits"

// table is an open-addressed hash table from uint64 keys to V with
// linear probing, kept at most half full. Every cell carries the
// generation that wrote it and a cell of an older generation reads as
// empty, so reset empties the table in O(1) and the simulator reuses its
// tables across threads and entries instead of reallocating them. No key
// is ever deleted within a generation, so probe runs need no tombstones.
type table[V any] struct {
	cells []cell[V]
	gen   uint32 // current generation; never 0 once cells exist
	n     int    // keys in the current generation
	shift uint   // 64 - log2(len(cells))
}

type cell[V any] struct {
	key uint64
	gen uint32
	val V
}

// reset empties the table.
func (t *table[V]) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: cells of every older generation would alias
		// new ones, so clear them once and start over.
		clear(t.cells)
		t.gen = 1
	}
}

// home is the key's preferred cell (Fibonacci hashing).
func (t *table[V]) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> t.shift) }

// get returns key's value, if present.
func (t *table[V]) get(key uint64) (v V, ok bool) {
	if t.cells == nil {
		return v, false
	}
	mask := len(t.cells) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.gen != t.gen {
			return v, false
		}
		if c.key == key {
			return c.val, true
		}
	}
}

func (t *table[V]) has(key uint64) bool {
	_, ok := t.get(key)
	return ok
}

// put returns key's value, inserting a zero one if key is absent; added
// reports the insertion. The pointer is valid until the next put.
func (t *table[V]) put(key uint64) (v *V, added bool) {
	if 2*(t.n+1) > len(t.cells) {
		t.grow()
	}
	mask := len(t.cells) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.gen != t.gen {
			*c = cell[V]{key: key, gen: t.gen}
			t.n++
			return &c.val, true
		}
		if c.key == key {
			return &c.val, false
		}
	}
}

func (t *table[V]) add(key uint64) { t.put(key) }

// grow doubles the table (to 16 cells at first), moving the current
// generation's keys.
func (t *table[V]) grow() {
	old := t.cells
	n := max(16, 2*len(old))
	t.cells = make([]cell[V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	if t.gen == 0 {
		t.gen = 1
	}
	mask := n - 1
	for i := range old {
		if old[i].gen != t.gen {
			continue
		}
		j := t.home(old[i].key)
		for t.cells[j].gen == t.gen {
			j = (j + 1) & mask
		}
		t.cells[j] = old[i]
	}
}
