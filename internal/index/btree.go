// Package index contrasts a cache-conscious B+-tree with a pointer-chasing
// binary search tree — the data-structure face of the keynote's argument.
// Both index int64 keys to int64 values and support lookups, inserts, and
// range scans; both expose the same traced mode that walks their node
// layout through the cache simulator, so experiment E10 can show where the
// binary tree's one-cache-line-per-level pointer chase loses to the
// B+-tree's line-packed nodes.
package index

import "hwstar/internal/cache"

// btreeOrder is the fan-out of the B+-tree. 32 keys of 8 bytes fill four
// cache lines per node: each level visited costs a handful of adjacent
// lines instead of one line per binary comparison.
const btreeOrder = 32

// nodeAddrSpace is the simulated size reserved per node for traced accesses.
const btreeNodeBytes = 1 << 10

// BTree is an in-memory B+-tree for int64 keys.
type BTree struct {
	root   *btreeNode
	height int
	size   int
	// nextAddr assigns simulated addresses to nodes in allocation order.
	nextAddr uint64
	base     uint64
}

type btreeNode struct {
	leaf     bool
	keys     []int64
	vals     []int64      // leaf payloads
	children []*btreeNode // interior children (len = len(keys)+1)
	next     *btreeNode   // leaf chain for range scans
	addr     uint64
}

// NewBTree returns an empty tree. base is the simulated address where its
// nodes are laid out (so multiple traced structures can coexist).
func NewBTree(base uint64) *BTree {
	t := &BTree{base: base}
	t.root = t.newNode(true)
	t.height = 1
	return t
}

func (t *BTree) newNode(leaf bool) *btreeNode {
	n := &btreeNode{leaf: leaf, addr: t.base + t.nextAddr}
	t.nextAddr += btreeNodeBytes
	return n
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 for a lone leaf).
func (t *BTree) Height() int { return t.height }

// Bytes returns the simulated memory footprint.
func (t *BTree) Bytes() int64 { return int64(t.nextAddr) }

// search returns the child index to follow for key in node n: the first
// slot whose key exceeds key.
func search(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key.
func (t *BTree) Get(key int64) (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[search(n.keys, key)]
	}
	for i, k := range n.keys {
		if k == key {
			return n.vals[i], true
		}
	}
	return 0, false
}

// TracedGet is Get with every visited node's lines pushed through the cache
// hierarchy; it returns the value and the simulated access cycles.
func (t *BTree) TracedGet(h *cache.Hierarchy, key int64) (int64, bool, float64) {
	var cycles float64
	n := t.root
	for {
		// A lookup touches roughly half the node's key area.
		span := int64(len(n.keys)*8)/2 + 8
		cycles += h.AccessRange(n.addr, span, 64)
		if n.leaf {
			break
		}
		n = n.children[search(n.keys, key)]
	}
	for i, k := range n.keys {
		if k == key {
			return n.vals[i], true, cycles
		}
	}
	return 0, false, cycles
}

// Insert stores (key, value), replacing any existing value for key.
func (t *BTree) Insert(key, val int64) {
	// Replace in place when present (keeps size exact).
	if _, ok := t.Get(key); ok {
		t.update(key, val)
		return
	}
	newChild, splitKey := t.insert(t.root, key, val)
	if newChild != nil {
		newRoot := t.newNode(false)
		newRoot.keys = []int64{splitKey}
		newRoot.children = []*btreeNode{t.root, newChild}
		t.root = newRoot
		t.height++
	}
	t.size++
}

func (t *BTree) update(key, val int64) {
	n := t.root
	for !n.leaf {
		n = n.children[search(n.keys, key)]
	}
	for i, k := range n.keys {
		if k == key {
			n.vals[i] = val
			return
		}
	}
}

// insert adds key to the subtree at n, returning a new right sibling and
// separator key when n splits.
func (t *BTree) insert(n *btreeNode, key, val int64) (*btreeNode, int64) {
	if n.leaf {
		pos := search(n.keys, key)
		n.keys = append(n.keys, 0)
		copy(n.keys[pos+1:], n.keys[pos:])
		n.keys[pos] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[pos+1:], n.vals[pos:])
		n.vals[pos] = val
		if len(n.keys) <= btreeOrder {
			return nil, 0
		}
		return t.splitLeaf(n)
	}
	idx := search(n.keys, key)
	newChild, splitKey := t.insert(n.children[idx], key, val)
	if newChild == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[idx+1:], n.keys[idx:])
	n.keys[idx] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = newChild
	if len(n.keys) <= btreeOrder {
		return nil, 0
	}
	return t.splitInterior(n)
}

func (t *BTree) splitLeaf(n *btreeNode) (*btreeNode, int64) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	right.next = n.next
	n.next = right
	return right, right.keys[0]
}

func (t *BTree) splitInterior(n *btreeNode) (*btreeNode, int64) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, splitKey
}

// TracedScan walks keys in [lo, hi] (up to limit) through the cache
// hierarchy: the descent to the start leaf plus the leaf chain, whose nodes
// are line-adjacent — the locality that makes B+-tree range scans cheap.
func (t *BTree) TracedScan(h *cache.Hierarchy, lo, hi int64, limit int) (int, float64) {
	var cycles float64
	n := t.root
	for {
		span := int64(len(n.keys)*8)/2 + 8
		cycles += h.AccessRange(n.addr, span, 64)
		if n.leaf {
			break
		}
		n = n.children[search(n.keys, lo)]
	}
	visited := 0
	for n != nil && visited < limit {
		cycles += h.AccessRange(n.addr, int64(len(n.keys)*8)+8, 64)
		for _, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi || visited >= limit {
				return visited, cycles
			}
			visited++
		}
		n = n.next
	}
	return visited, cycles
}
