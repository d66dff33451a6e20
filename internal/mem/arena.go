package mem

import "fmt"

// defaultChunk is the arena chunk size when callers pass a non-positive one.
const defaultChunk = 1 << 20

// Arena is a bump allocator over large chunks. Allocations are never freed
// individually; Release drops all chunks at once. Arena is not safe for
// concurrent use — each worker owns its own arena, which is itself one of the
// hardware-conscious disciplines the keynote advocates (no shared allocator
// contention).
type Arena struct {
	chunkSize int
	cur       []byte
	off       int
	chunks    [][]byte
	allocated int64
}

// NewArena returns an arena with the given chunk size in bytes.
func NewArena(chunkSize int) *Arena {
	if chunkSize <= 0 {
		chunkSize = defaultChunk
	}
	return &Arena{chunkSize: chunkSize}
}

// Alloc returns a zeroed byte slice of length n carved from the arena.
// Requests larger than the chunk size get a dedicated chunk.
func (a *Arena) Alloc(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("mem: Alloc(%d): negative size", n))
	}
	a.allocated += int64(n)
	if n > a.chunkSize {
		big := make([]byte, n)
		a.chunks = append(a.chunks, big)
		return big
	}
	if a.cur == nil || a.off+n > len(a.cur) {
		a.cur = make([]byte, a.chunkSize)
		a.chunks = append(a.chunks, a.cur)
		a.off = 0
	}
	s := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// AllocatedBytes returns the total bytes handed out (not chunk capacity).
func (a *Arena) AllocatedBytes() int64 { return a.allocated }

// FootprintBytes returns the total capacity of all chunks held by the arena.
func (a *Arena) FootprintBytes() int64 {
	var t int64
	for _, c := range a.chunks {
		t += int64(len(c))
	}
	return t
}

// Release drops every chunk, returning the memory to the Go runtime.
func (a *Arena) Release() {
	a.cur = nil
	a.chunks = nil
	a.off = 0
	a.allocated = 0
}
