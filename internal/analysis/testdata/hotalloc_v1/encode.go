// Testdata for the hotalloc analyzer, judged as hwstar/internal/frontend/v1 —
// in scope since the response encoder's group loop runs once per group of
// every group-sum answer. The case mirrors what the encoder replaced: a
// formatted string per group.
package v1

import (
	"fmt"
	"strconv"
)

func AppendGroupsFormatted(dst []byte, groups map[int64]int64) []byte {
	for k, v := range groups {
		dst = append(dst, fmt.Sprintf("%q:%d,", strconv.FormatInt(k, 10), v)...) // want "Sprintf boxes its arguments"
	}
	return dst
}

// AppendGroupsOK is the fix: strconv appends into the buffer it was given.
func AppendGroupsOK(dst []byte, groups map[int64]int64) []byte {
	for k, v := range groups {
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, k, 10)
		dst = append(dst, '"', ':')
		dst = strconv.AppendInt(dst, v, 10)
		dst = append(dst, ',')
	}
	return dst
}

// ErrorPathOK: a return ends the loop, so its message is formatted once.
func ErrorPathOK(vals []float64) error {
	for i, f := range vals {
		if f != f {
			return fmt.Errorf("value %d is not a number", i)
		}
	}
	return nil
}
