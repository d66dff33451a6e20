package index

import "hwstar/internal/cache"

// bstNodeBytes is the simulated footprint of one BST node: key, value, two
// child pointers, padded to half a cache line (typical allocator behaviour).
const bstNodeBytes = 32

// BST is an unbalanced binary search tree — the textbook in-memory index the
// keynote's hardware argument condemns: every level is a dependent load of
// one sparse cache line. Inserting keys in random order keeps the expected
// height at ~1.39·log2(n), which is the favourable case; the cache
// behaviour, not the asymptotics, is what loses.
type BST struct {
	root     *bstNode
	size     int
	nextAddr uint64
	base     uint64
}

type bstNode struct {
	key, val    int64
	left, right *bstNode
	addr        uint64
}

// NewBST returns an empty tree laying its nodes out at simulated base.
func NewBST(base uint64) *BST { return &BST{base: base} }

// Len returns the number of stored keys.
func (t *BST) Len() int { return t.size }

// Bytes returns the simulated memory footprint.
func (t *BST) Bytes() int64 { return int64(t.nextAddr) }

// Insert stores (key, value), replacing any existing value.
func (t *BST) Insert(key, val int64) {
	node := &t.root
	for *node != nil {
		n := *node
		switch {
		case key == n.key:
			n.val = val
			return
		case key < n.key:
			node = &n.left
		default:
			node = &n.right
		}
	}
	*node = &bstNode{key: key, val: val, addr: t.base + t.nextAddr}
	t.nextAddr += bstNodeBytes
	t.size++
}

// Get returns the value stored under key.
func (t *BST) Get(key int64) (int64, bool) {
	n := t.root
	for n != nil {
		switch {
		case key == n.key:
			return n.val, true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false
}

// TracedGet is Get with each visited node pushed through the cache
// hierarchy; every level is one dependent random access.
func (t *BST) TracedGet(h *cache.Hierarchy, key int64) (int64, bool, float64) {
	var cycles float64
	n := t.root
	for n != nil {
		cycles += h.Access(n.addr)
		switch {
		case key == n.key:
			return n.val, true, cycles
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false, cycles
}

// TracedScan visits keys in [lo, hi] (up to limit) in order, touching every
// visited node's line: each step of the in-order walk is another dependent
// sparse access — range scans are where the BST loses hardest.
func (t *BST) TracedScan(h *cache.Hierarchy, lo, hi int64, limit int) (int, float64) {
	var cycles float64
	visited := 0
	var walk func(n *bstNode) bool
	walk = func(n *bstNode) bool {
		if n == nil || visited >= limit {
			return visited < limit
		}
		cycles += h.Access(n.addr)
		if n.key > lo {
			if !walk(n.left) {
				return false
			}
		}
		if n.key >= lo && n.key <= hi {
			if visited >= limit {
				return false
			}
			visited++
		}
		if n.key < hi {
			return walk(n.right)
		}
		return true
	}
	walk(t.root)
	return visited, cycles
}
