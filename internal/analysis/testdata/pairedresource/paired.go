// Testdata for the pairedresource analyzer: started spans reach End and
// granted reservations reach Release, on every path.
package serve

import (
	"errors"

	"hwstar/internal/mem"
	"hwstar/internal/trace"
)

func LeakSpan(t *trace.Tracer) {
	sp := t.Start("leak") // want `sp acquired here never reaches Span.End`
	sp.AddCycles(1)
}

func LeakChild(parent *trace.Span) {
	c := parent.Child("phase") // want `c acquired here never reaches Span.End`
	c.AddBytes(64)
}

func EarlyReturn(t *trace.Tracer, fail bool) error {
	sp := t.Start("early") // want `does not reach Span.End on the early-return path`
	if fail {
		return errors.New("fail")
	}
	sp.End()
	return nil
}

// DeferredOK is the fix the analyzer suggests: defer pairs every path.
func DeferredOK(t *trace.Tracer, fail bool) error {
	sp := t.Start("ok")
	defer sp.End()
	if fail {
		return errors.New("fail")
	}
	return nil
}

// DeferredClosureOK: a release inside a deferred literal still pairs.
func DeferredClosureOK(t *trace.Tracer, fail bool) error {
	sp := t.Start("ok")
	defer func() {
		sp.SetAttr("status", "done")
		sp.End()
	}()
	if fail {
		return errors.New("fail")
	}
	return nil
}

// LinearOK: no exit between acquisition and release, so no defer needed.
func LinearOK(t *trace.Tracer) {
	sp := t.Start("linear")
	sp.AddCycles(2)
	sp.End()
}

// EscapeReturnOK: ownership transfers to the caller.
func EscapeReturnOK(t *trace.Tracer) *trace.Span {
	sp := t.Start("escapes")
	return sp
}

// EscapeStoreOK: ownership transfers to the struct that outlives the call.
type holder struct{ sp *trace.Span }

func EscapeStoreOK(t *trace.Tracer, h *holder) {
	sp := t.Start("stored")
	h.sp = sp
}

func LeakReservation(g *mem.Governor) {
	r := g.Reserve("") // want `r acquired here never reaches Reservation.Release`
	_ = r.Charge("agg-table", 0, 4096)
}

func EarlyReturnReservation(g *mem.Governor) error {
	r := g.Reserve("") // want `does not reach Reservation.Release on the early-return path`
	if err := r.Charge("join-build", 0, 4096); err != nil {
		return err
	}
	r.Release()
	return nil
}

// DeferredReservationOK: nil-safe Release deferred immediately covers the
// error path too.
func DeferredReservationOK(g *mem.Governor) error {
	r := g.Reserve("")
	defer r.Release()
	return r.Charge("join-build", 0, 4096)
}
