package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry's current state in the
// Prometheus text exposition format (version 0.0.4): one # TYPE line
// per metric family, instruments in sorted (name, labels) order. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	lastType := ""
	typeLine := func(name, typ string) {
		if name != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
			lastType = name
		}
	}
	for _, c := range s.Counters {
		typeLine(c.Name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", c.Name, labelString(c.Labels, "", ""), c.Value)
	}
	for _, g := range s.Gauges {
		typeLine(g.Name, "gauge")
		fmt.Fprintf(&b, "%s%s %s\n", g.Name, labelString(g.Labels, "", ""), formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		typeLine(h.Name, "histogram")
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				h.Name, labelString(h.Labels, "le", formatBound(bk.UpperBound)), bk.Count)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.Name, labelString(h.Labels, "", ""), formatValue(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.Name, labelString(h.Labels, "", ""), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...} (sorted by key, with an optional
// extra pair appended last), or "" when there are no labels at all.
func labelString(labels []Label, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	// %q escapes quotes, backslashes and newlines exactly as the
	// exposition format requires.
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(sorted) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus clients do.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
