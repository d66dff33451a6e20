// Prometheus text exposition for registry snapshots. The exporter is
// pull-based and allocation-light: a scrape takes one Snapshot and renders
// deterministic, sorted output — no background goroutines, no
// third-party client library.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName converts a registry metric name ("serve.latency_ms") to a valid
// Prometheus metric name ("serve_latency_ms"): every character outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as summaries with quantile labels plus _sum and _count. Families are
// emitted in sorted name order so scrapes diff cleanly.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w,
			"# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.95\"} %g\n%s{quantile=\"0.99\"} %g\n%s_sum %g\n%s_count %d\n",
			pn, pn, h.P50, pn, h.P95, pn, h.P99, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}
