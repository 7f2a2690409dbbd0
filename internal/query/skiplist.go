package query

import (
	"bytes"
	"sync"
)

// skiplist is the in-memory directory behind an ordered index: postings
// ordered on the pair (key, oid) — the order-preserving attr encoding
// compared bytewise, then the OID, so duplicate attr values coexist and
// scan in OID order — mapping to the optimistic record location. Readers
// re-verify through MVCC, so the list only needs internal consistency:
// one mutex for writers, read-locked iteration for scans. Levels are driven by a cheap xorshift
// PRNG seeded per list — no global rand dependency.
const skipMaxLevel = 24

type skipNode struct {
	key  []byte
	val  skipVal
	next [skipMaxLevel]*skipNode
}

// skipPos is a position in the (key, oid) order; scan bounds are
// positions, (k, 0) before every posting of k and (k, max) after them.
type skipPos struct {
	key []byte
	oid uint64
}

// cmpPos orders postings by key bytes, then OID.
func cmpPos(key []byte, oid uint64, p skipPos) int {
	if c := bytes.Compare(key, p.key); c != 0 {
		return c
	}
	switch {
	case oid < p.oid:
		return -1
	case oid > p.oid:
		return 1
	}
	return 0
}

func (n *skipNode) less(p skipPos) bool { return cmpPos(n.key, n.val.oid, p) < 0 }

type skiplist struct {
	mu    sync.RWMutex
	head  *skipNode
	level int
	size  int
	rng   uint64
}

func newSkiplist() *skiplist {
	return &skiplist{head: &skipNode{}, level: 1, rng: 0x9E3779B97F4A7C15}
}

func (s *skiplist) randLevel() int {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	lvl := 1
	// P(level bump) = 1/4 per step, geometric.
	for x&3 == 0 && lvl < skipMaxLevel {
		lvl++
		x >>= 2
	}
	return lvl
}

// seek returns the last node before p and, per level, the predecessors
// an insert or delete at p relinks. Caller holds mu.
func (s *skiplist) seek(p skipPos, update *[skipMaxLevel]*skipNode) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].less(p) {
			x = x.next[i]
		}
		if update != nil {
			update[i] = x
		}
	}
	return x
}

// at reports whether n holds exactly position p.
func (n *skipNode) at(p skipPos) bool { return n != nil && cmpPos(n.key, n.val.oid, p) == 0 }

// set inserts or overwrites the posting (key, val.oid).
func (s *skiplist) set(key []byte, val skipVal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var update [skipMaxLevel]*skipNode
	x := s.seek(skipPos{key, val.oid}, &update)
	if nxt := x.next[0]; nxt.at(skipPos{key, val.oid}) {
		nxt.val = val
		return
	}
	lvl := s.randLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &skipNode{key: key, val: val}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.size++
}

// del removes the posting (key, oid) if present.
func (s *skiplist) del(key []byte, oid uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var update [skipMaxLevel]*skipNode
	target := s.seek(skipPos{key, oid}, &update).next[0]
	if !target.at(skipPos{key, oid}) {
		return
	}
	for i := 0; i < s.level; i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.size--
}

// get returns the posting (key, oid).
func (s *skiplist) get(key []byte, oid uint64) (skipVal, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if nxt := s.seek(skipPos{key, oid}, nil).next[0]; nxt.at(skipPos{key, oid}) {
		return nxt.val, true
	}
	return skipVal{}, false
}

// scan visits postings with lo <= (key, oid) <= hi (nil lo = from start,
// nil hi = to end) in order, under the read lock; fn returns false to
// stop and must not block on writer work. Keys are never mutated, so fn
// may retain them.
func (s *skiplist) scan(lo, hi *skipPos, fn func(key []byte, val skipVal) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	x := s.head
	if lo != nil {
		x = s.seek(*lo, nil)
	}
	for n := x.next[0]; n != nil; n = n.next[0] {
		if hi != nil && cmpPos(n.key, n.val.oid, *hi) > 0 {
			return
		}
		if !fn(n.key, n.val) {
			return
		}
	}
}

func (s *skiplist) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}
