package runpack

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/profile"
)

// DiffResult explains how two packs diverge: configuration deltas, the
// first differing trace event, answer/report disagreement, and per-path /
// per-class cost deltas mined from the reports' profiles.
type DiffResult struct {
	// Identical is true when the two packs have the same id (same bytes).
	Identical bool
	// ConfigDeltas lists "field: a -> b" lines for differing config fields.
	ConfigDeltas []string
	// AnswerA/AnswerB are the packed answers (equal or not).
	AnswerA, AnswerB string
	// TraceDivergence is the first differing trace event (A = first pack,
	// B = second); nil when the traces are identical.
	TraceDivergence *Divergence
	// PathDeltas / ClassDeltas are cost deltas between the reports'
	// profiles, biggest absolute instruction delta first.
	PathDeltas  []CostDelta
	ClassDeltas []CostDelta
}

// CostDelta is one attribution row's change between two packs.
type CostDelta struct {
	Name           string `json:"name"`
	InstrA, InstrB uint64 `json:"-"`
}

func (d CostDelta) String() string {
	pct := ""
	if d.InstrA > 0 {
		pct = fmt.Sprintf(" (%+.1f%%)", 100*(float64(d.InstrB)-float64(d.InstrA))/float64(d.InstrA))
	}
	return fmt.Sprintf("%-16s %12d -> %12d%s", d.Name, d.InstrA, d.InstrB, pct)
}

// Diff compares two opened packs.
func Diff(a, b *Pack) *DiffResult {
	d := &DiffResult{Identical: a.Manifest.ID == b.Manifest.ID}
	d.ConfigDeltas = configDeltas(a, b)
	var da, db reportDoc
	json.Unmarshal(a.ReportJSON, &da)
	json.Unmarshal(b.ReportJSON, &db)
	d.AnswerA, d.AnswerB = da.Answer, db.Answer
	d.TraceDivergence = firstDivergence(a.TraceJSONL, b.TraceJSONL)
	pa, pb := da.profile(), db.profile()
	d.PathDeltas = costDeltas(pathRows(pa), pathRows(pb))
	d.ClassDeltas = costDeltas(classRows(pa), classRows(pb))
	return d
}

// configDeltas compares the two configs field by field through their JSON
// form.
func configDeltas(a, b *Pack) []string {
	am, bm := configMap(a), configMap(b)
	keys := make(map[string]bool)
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		av, bv := render(am[k]), render(bm[k])
		if av != bv {
			out = append(out, fmt.Sprintf("%s: %s -> %s", k, av, bv))
		}
	}
	return out
}

func configMap(p *Pack) map[string]any {
	b, _ := json.Marshal(p.Config)
	m := map[string]any{}
	json.Unmarshal(b, &m)
	return m
}

func render(v any) string {
	if v == nil {
		return "(unset)"
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// costDeltas joins two name -> instructions tables and reports the rows
// that differ, biggest absolute delta first.
func costDeltas(am, bm map[string]uint64) []CostDelta {
	keys := make(map[string]bool)
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	var out []CostDelta
	for k := range keys {
		ia, ib := am[k], bm[k]
		if ia != ib {
			out = append(out, CostDelta{Name: k, InstrA: ia, InstrB: ib})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := absDelta(out[i])
		dj := absDelta(out[j])
		if di != dj {
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func absDelta(d CostDelta) uint64 {
	if d.InstrB > d.InstrA {
		return d.InstrB - d.InstrA
	}
	return d.InstrA - d.InstrB
}

// pathRows maps each cost path of a profile to its instructions.
func pathRows(p *profile.Report) map[string]uint64 {
	if p == nil {
		return nil
	}
	rows := make(map[string]uint64, len(p.Paths))
	for _, ps := range p.Paths {
		rows[ps.Path] = ps.Instr
	}
	return rows
}

// classRows maps each class of a profile to its method-body instructions.
func classRows(p *profile.Report) map[string]uint64 {
	if p == nil {
		return nil
	}
	rows := make(map[string]uint64, len(p.Classes))
	for _, cs := range p.Classes {
		rows[cs.Class] = cs.BodyInstr
	}
	return rows
}

// Summary renders the diff for humans.
func (d *DiffResult) Summary(a, b *Pack) string {
	var s strings.Builder
	fmt.Fprintf(&s, "diff %s (%s) vs %s (%s)\n",
		a.Manifest.ID, a.Config.Workload, b.Manifest.ID, b.Config.Workload)
	if d.Identical {
		s.WriteString("  packs are identical (same content id)\n")
		return s.String()
	}
	if len(d.ConfigDeltas) > 0 {
		s.WriteString("  config:\n")
		for _, c := range d.ConfigDeltas {
			fmt.Fprintf(&s, "    %s\n", c)
		}
	} else {
		s.WriteString("  config: identical — same inputs, different execution\n")
	}
	if d.AnswerA != d.AnswerB {
		fmt.Fprintf(&s, "  answer: %q -> %q\n", d.AnswerA, d.AnswerB)
	}
	if dv := d.TraceDivergence; dv != nil {
		fmt.Fprintf(&s, "  first divergent trace event (#%d):\n", dv.Event)
		fmt.Fprintf(&s, "    a: %s\n", orEnd(dv.A))
		fmt.Fprintf(&s, "    b: %s\n", orEnd(dv.B))
	} else {
		s.WriteString("  traces: identical\n")
	}
	writeDeltas := func(title string, ds []CostDelta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintf(&s, "  %s (instr):\n", title)
		max := len(ds)
		if max > 8 {
			max = 8
		}
		for _, cd := range ds[:max] {
			fmt.Fprintf(&s, "    %s\n", cd)
		}
		if len(ds) > max {
			fmt.Fprintf(&s, "    ... and %d more\n", len(ds)-max)
		}
	}
	writeDeltas("per-path cost deltas", d.PathDeltas)
	writeDeltas("per-class cost deltas", d.ClassDeltas)
	return s.String()
}
