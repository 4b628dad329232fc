package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled so the
// module stays dependency-free. PromWriter renders counters, gauges, and
// histograms; the Collector's power-of-two histograms map directly onto
// Prometheus cumulative buckets (each bucket's inclusive upper bound is
// the "le" label; a final +Inf bucket equals the sample count).
//
// PromLint (promlint.go) validates the output the way promtool's linter
// would, and is shared by the obs tests, the server tests, and the
// `xrtrace -promlint` step of the smoke scripts.

// PromLabel is one label pair of a sample.
type PromLabel struct {
	Name  string
	Value string
}

// PromWriter emits Prometheus text-format families. Errors are sticky:
// check Err once after the last write.
type PromWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

// NewPromWriter returns a writer targeting w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble for a family once.
func (p *PromWriter) header(name, typ, help string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	if help != "" {
		p.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *PromWriter) sample(name string, labels []PromLabel, v float64) {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	p.printf("%s %s\n", b.String(), formatValue(v))
}

// Counter emits one counter family with a single sample.
func (p *PromWriter) Counter(name, help string, v float64, labels ...PromLabel) {
	p.header(name, "counter", help)
	p.sample(name, labels, v)
}

// Gauge emits one gauge family with a single sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...PromLabel) {
	p.header(name, "gauge", help)
	p.sample(name, labels, v)
}

// Histogram emits one labeled series of a histogram family from a
// snapshot: cumulative buckets ending at +Inf, then _sum and _count. The
// +Inf bucket and _count are both the bucket total, so they agree even
// when the snapshot raced concurrent observations.
func (p *PromWriter) Histogram(name, help string, h HistogramSnapshot, labels ...PromLabel) {
	p.header(name, "histogram", help)
	bl := make([]PromLabel, len(labels)+1)
	copy(bl, labels)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		bl[len(labels)] = PromLabel{Name: "le", Value: strconv.FormatInt(b.Le, 10)}
		p.sample(name+"_bucket", bl, float64(cum))
	}
	bl[len(labels)] = PromLabel{Name: "le", Value: "+Inf"}
	p.sample(name+"_bucket", bl, float64(cum))
	p.sample(name+"_sum", labels, float64(h.Sum))
	p.sample(name+"_count", labels, float64(cum))
}

// CollectorEvents renders every event kind a collector has seen as one
// histogram family labeled by kind (values) plus one counter family
// (occurrences). Kinds are emitted in EventKind order, which is stable.
func (p *PromWriter) CollectorEvents(prefix string, c *Collector) {
	countName := prefix + "_events_total"
	histName := prefix + "_event_value"
	for k := EventKind(0); k < NumEvents; k++ {
		if c.Count(k) == 0 {
			continue
		}
		p.Counter(countName, "Total events recorded per kind.",
			float64(c.Count(k)), PromLabel{Name: "kind", Value: k.String()})
	}
	for k := EventKind(0); k < NumEvents; k++ {
		if c.Count(k) == 0 {
			continue
		}
		p.Histogram(histName, "Distribution of event values per kind (ns for *Span kinds).",
			c.hists[k].Snapshot(), PromLabel{Name: "kind", Value: k.String()})
	}
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
