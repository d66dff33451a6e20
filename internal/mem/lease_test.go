package mem

import (
	"runtime"
	"testing"
)

// TestLeaseHoldsColumnsUntilLastRelease: a column stays its lease's while any
// reference is left, so a fresh lease is never handed it; a nil lease makes
// plain columns and counts nothing.
func TestLeaseHoldsColumnsUntilLastRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back what it was given
	for _, n := range []int{1, 3, 1 << 10, 1<<10 + 1} {
		l := NewLease()
		col := l.Column(n)
		if len(col) != n || cap(col) != n {
			t.Fatalf("Column(%d): len %d cap %d", n, len(col), cap(col))
		}
		l.Acquire()
		l.Release()
		fresh := NewLease()
		for i := 0; i < 4; i++ {
			if c := fresh.Column(n); &c[0] == &col[0] {
				t.Fatalf("Column(%d) handed out again while its lease held a reference", n)
			}
		}
		fresh.Release()
		l.Release()
	}

	var nl *Lease
	nl.Acquire()
	nl.Release()
	nl.Release()
	if c := nl.Column(5); len(c) != 5 || c[4] != 0 {
		t.Fatalf("nil lease Column(5) = %v", c)
	}
	if c := nl.Column(0); c == nil || len(c) != 0 {
		t.Fatalf("nil lease Column(0) = %#v, want empty and non-nil", c)
	}
}

// TestLeaseReleaseBelowZeroPanics: a release past the last reference would
// recycle columns under a reader still holding them, so it is a bug, loudly.
func TestLeaseReleaseBelowZeroPanics(t *testing.T) {
	l := NewLease()
	l.Column(8)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a one-reference lease did not panic")
		}
	}()
	l.Release()
}
