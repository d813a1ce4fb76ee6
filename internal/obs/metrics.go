package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Label is one metric dimension, e.g. {K: "pe", V: "3"}.
type Label struct {
	K, V string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// Desc declares one metric family — the one place its name, kind, unit,
// label keys and help text are written. The emitter takes it where it
// used to take a name and a help string, /metrics prints its Help, and
// docs/METRICS.md is WriteReference over the registered descriptors, so
// the three cannot disagree.
type Desc struct {
	Name string
	Kind string // "counter", "gauge" or "quantiles"
	// Unit is what the value counts ("tasks", "seconds", ...), or
	// "dimensionless (...)" for booleans, enums and indexes.
	Unit   string
	Labels string // label keys, comma-separated, in emission order
	Help   string
	// CountHelp describes the <Name>_count family of a quantiles
	// descriptor (its sample counter).
	CountHelp string
}

// families is the registration table, filled by package-level New* calls
// at start-up.
var families []*Desc

// NewCounter, NewGauge and NewQuantiles declare and register a family. A
// name that breaks the naming rules (check) or is taken is a programming
// error and panics at start-up, before any scrape could show it.
func NewCounter(name, unit, labels, help string) *Desc {
	return register(&Desc{Name: name, Kind: "counter", Unit: unit, Labels: labels, Help: help})
}

func NewGauge(name, unit, labels, help string) *Desc {
	return register(&Desc{Name: name, Kind: "gauge", Unit: unit, Labels: labels, Help: help})
}

func NewQuantiles(name, labels, help, countHelp string) *Desc {
	return register(&Desc{Name: name, Kind: "quantiles", Unit: "seconds", Labels: labels, Help: help, CountHelp: countHelp})
}

func register(d *Desc) *Desc {
	if err := d.check(); err != nil {
		panic(err)
	}
	for _, f := range families {
		if f.Name == d.Name {
			panic(fmt.Sprintf("obs: metric family %s declared twice", d.Name))
		}
	}
	families = append(families, d)
	return d
}

// check enforces the naming rules: every family is prefixed sws_,
// counters end in _total, and a gauge or quantile family ends in its
// unit unless it is documented dimensionless.
func (d *Desc) check() error {
	unit, _, _ := strings.Cut(d.Unit, " ")
	switch {
	case !strings.HasPrefix(d.Name, "sws_"):
		return fmt.Errorf("obs: %s: missing sws_ prefix", d.Name)
	case d.Kind == "counter" && !strings.HasSuffix(d.Name, "_total"):
		return fmt.Errorf("obs: %s: counter without _total suffix", d.Name)
	case d.Kind != "counter" && unit != "dimensionless" && !strings.HasSuffix(d.Name, "_"+unit):
		return fmt.Errorf("obs: %s: %s does not end with its unit %q", d.Name, d.Kind, d.Unit)
	}
	return nil
}

// rows expands the descriptor into its reference rows: one, or the
// quantile gauges plus their _count sample counter.
func (d *Desc) rows() []Desc {
	if d.Kind != "quantiles" {
		return []Desc{*d}
	}
	labels := "quantile"
	if d.Labels != "" {
		labels = d.Labels + ", quantile"
	}
	return []Desc{
		{Name: d.Name, Kind: "gauge", Unit: d.Unit, Labels: labels, Help: d.Help},
		{Name: d.Name + "_count", Kind: "counter", Unit: "samples", Labels: d.Labels, Help: d.CountHelp},
	}
}

// Reference returns one row per family any linked package registered,
// sorted by name (scrape order).
func Reference() []Desc {
	var out []Desc
	for _, d := range families {
		out = append(out, d.rows()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteReference renders Reference as the markdown document committed at
// docs/METRICS.md.
func WriteReference(w io.Writer) error {
	if _, err := fmt.Fprint(w, referenceHeader); err != nil {
		return err
	}
	for _, d := range Reference() {
		if _, err := fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n",
			d.Name, d.Kind, d.Unit, d.Labels, d.Help); err != nil {
			return err
		}
	}
	return nil
}

const referenceHeader = "# Metrics reference\n\n" +
	"Every metric family exported on the /metrics endpoint (Prometheus text\n" +
	"format; also available as JSON at /metrics.json). All families carry the\n" +
	"`sws_` prefix; counters end in `_total` (or `_count` for histogram\n" +
	"sample counts) and gauges either end in their unit or are documented as\n" +
	"dimensionless below. Quantile families emit p50/p95/p99 as gauges\n" +
	"labelled `quantile`.\n\n" +
	"Generated from the `obs.Desc` descriptors declared beside the code that\n" +
	"emits each family (`internal/pool/metrics.go`, `internal/serve/service.go`,\n" +
	"`internal/shmem/counters.go`) — regenerate with:\n\n" +
	"    go test ./internal/serve -run TestMetricsReferenceDocInSync -update-metrics-doc\n\n" +
	"| name | kind | unit | labels | description |\n" +
	"|------|------|------|--------|-------------|\n"

// Metric is one sample produced by a source during a gather pass.
type Metric struct {
	Name   string
	Help   string
	Kind   string // "counter" or "gauge"
	Labels []Label
	Value  float64
}

// SourceFunc emits the current values of one component's metrics. Sources
// are called on every scrape, concurrently with the run they observe, so
// they must read only concurrency-safe state (atomics, Hist snapshots).
type SourceFunc func(e *Emitter)

// Gatherer collects metric sources and renders scrape responses. Safe for
// concurrent registration and gathering.
type Gatherer struct {
	mu      sync.Mutex
	sources []SourceFunc
}

// NewGatherer returns an empty Gatherer.
func NewGatherer() *Gatherer { return &Gatherer{} }

// Register adds a source. Sources persist for the Gatherer's lifetime;
// per-run components (pools) should register once per construction.
func (g *Gatherer) Register(s SourceFunc) {
	if g == nil || s == nil {
		return
	}
	g.mu.Lock()
	g.sources = append(g.sources, s)
	g.mu.Unlock()
}

// Gather runs every source and returns the samples in a deterministic
// order (by name, then label values).
func (g *Gatherer) Gather() []Metric {
	g.mu.Lock()
	sources := append([]SourceFunc(nil), g.sources...)
	g.mu.Unlock()
	e := &Emitter{}
	for _, s := range sources {
		s(e)
	}
	sort.SliceStable(e.metrics, func(i, j int) bool {
		a, b := e.metrics[i], e.metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelKey(a.Labels) < labelKey(b.Labels)
	})
	return e.metrics
}

func labelKey(ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.K + "=" + l.V
	}
	return strings.Join(parts, ",")
}

// Emitter accumulates metrics during one gather pass.
type Emitter struct {
	metrics []Metric
}

// Counter emits a monotonically increasing value.
func (e *Emitter) Counter(d *Desc, v float64, labels ...Label) {
	e.metrics = append(e.metrics, Metric{Name: d.Name, Help: d.Help, Kind: "counter", Labels: labels, Value: v})
}

// Gauge emits an instantaneous value.
func (e *Emitter) Gauge(d *Desc, v float64, labels ...Label) {
	e.metrics = append(e.metrics, Metric{Name: d.Name, Help: d.Help, Kind: "gauge", Labels: labels, Value: v})
}

// Quantiles emits p50/p95/p99 of a histogram snapshot in seconds (as
// gauges labelled quantile=...), plus the family's _count counter. Empty
// snapshots emit nothing, keeping scrapes compact.
func (e *Emitter) Quantiles(d *Desc, s HistSnap, labels ...Label) {
	n := s.Count()
	if n == 0 {
		return
	}
	rows := d.rows()
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}} {
		ls := append(append([]Label(nil), labels...), L("quantile", q.label))
		e.Gauge(&rows[0], s.Quantile(q.q).Seconds(), ls...)
	}
	e.Counter(&rows[1], float64(n), labels...)
}

// escapeLabel escapes a Prometheus label value.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders all gathered metrics in the Prometheus text
// exposition format (version 0.0.4).
func (g *Gatherer) WritePrometheus(w io.Writer) error {
	var lastName string
	for _, m := range g.Gather() {
		if m.Name != lastName {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			lastName = m.Name
		}
		var sb strings.Builder
		sb.WriteString(m.Name)
		if len(m.Labels) > 0 {
			sb.WriteByte('{')
			for i, l := range m.Labels {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `%s="%s"`, l.K, escapeLabel.Replace(l.V))
			}
			sb.WriteByte('}')
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", sb.String(), m.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders all gathered metrics as a JSON array of objects, for
// ad-hoc tooling that prefers structured scrapes over Prometheus text.
func (g *Gatherer) WriteJSON(w io.Writer) error {
	type jm struct {
		Name   string            `json:"name"`
		Kind   string            `json:"kind"`
		Labels map[string]string `json:"labels,omitempty"`
		Value  float64           `json:"value"`
	}
	ms := g.Gather()
	out := make([]jm, len(ms))
	for i, m := range ms {
		var ls map[string]string
		if len(m.Labels) > 0 {
			ls = make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				ls[l.K] = l.V
			}
		}
		out[i] = jm{Name: m.Name, Kind: m.Kind, Labels: ls, Value: m.Value}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
