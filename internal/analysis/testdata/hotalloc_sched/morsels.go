// Testdata for the hotalloc analyzer, judged as hwstar/internal/sched — in
// scope since hwperf showed a name formatted per morsel that only the fault
// paths read. The cases mirror the real call sites: building a request's
// tasks, and the dispatch loop's fault paths.
package sched

import (
	"errors"
	"fmt"
)

type Task struct {
	Name   string
	Site   string
	lo, hi int
}

func MorselsNamed(n, size int, name string) []Task {
	tasks := make([]Task, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		tasks = append(tasks, Task{Name: fmt.Sprintf("%s[%d:%d]", name, start, start+size), Site: name}) // want "Sprintf boxes its arguments"
	}
	return tasks
}

// MorselsRangedOK is the fix: carry the range, format it where it is printed.
func MorselsRangedOK(n, size int, name string) []Task {
	tasks := make([]Task, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		tasks = append(tasks, Task{Site: name, lo: start, hi: start + size})
	}
	return tasks
}

// BreakPathOK: a block that ends by breaking out of the loop runs at most
// once, like a return.
func BreakPathOK(tasks []Task) error {
	var runErr error
	for i, t := range tasks {
		if t.hi < t.lo {
			runErr = fmt.Errorf("task %d (%s) failed: %w", i, t.Site, errors.New("bad"))
			break
		}
	}
	return runErr
}

// SwitchBreak: a break inside a switch leaves the switch, not the loop, so
// the block still runs once per iteration.
func SwitchBreak(tasks []Task) []string {
	var out []string
	for i, t := range tasks {
		switch {
		case t.hi < t.lo:
			if i > 0 {
				out = append(out, fmt.Sprintf("task %d", i)) // want "Sprintf boxes its arguments"
				break
			}
		}
	}
	return out
}
