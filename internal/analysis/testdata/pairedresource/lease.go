// A mem.Lease from NewLease must reach Release: the last Release is what
// hands its pooled columns back.
package serve

import "hwstar/internal/mem"

func LeakLease(n int) int64 {
	l := mem.NewLease() // want `l acquired here never reaches Lease.Release`
	col := l.Column(n)
	return int64(len(col))
}

func LeaseOK(n int) int64 {
	l := mem.NewLease()
	defer l.Release()
	col := l.Column(n)
	return int64(len(col))
}
