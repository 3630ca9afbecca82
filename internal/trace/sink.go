package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
)

// JSONL streams every event as one JSON object per line:
//
//	{"at":152090,"node":3,"kind":"send","what":"nq.node <- nq.expand (dormant mode)"}
//
// Serialization happens inside Event, so nothing of the event is retained.
// Output is byte-deterministic for a deterministic event stream (same seed
// ⇒ identical file), which the golden-file test relies on. Write errors are
// sticky: the first one is kept, subsequent events are dropped, and the
// caller checks Err after the run.
type JSONL struct {
	w   io.Writer
	err error
}

// NewJSONL returns a streaming JSONL sink writing to w. Wrap w in a
// bufio.Writer for file output; the sink never flushes.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// jsonlEvent is the wire schema of one line. Its integers are 64-bit on
// every host, so CheckJSONL range-checks a huge node id instead of failing
// to decode it.
type jsonlEvent struct {
	At   int64  `json:"at"`
	Node int64  `json:"node"`
	Kind string `json:"kind"`
	What string `json:"what"`
}

// Event implements Sink.
func (j *JSONL) Event(e Event) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(jsonlEvent{
		At:   int64(e.At),
		Node: int64(e.Node),
		Kind: e.Kind.String(),
		What: e.What,
	})
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Err returns the first write or marshal error, if any.
func (j *JSONL) Err() error { return j.err }

// Metrics is a summary sink: it keeps per-kind and per-node event counts and
// the observed time range, discarding the event text. Cheap enough to leave
// attached to long runs where a Ring would thrash.
type Metrics struct {
	total  uint64
	byKind [NumKinds]uint64
	byNode []uint64
	first  sim.Time
	last   sim.Time
	any    bool
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Event implements Sink.
func (m *Metrics) Event(e Event) {
	m.total++
	if int(e.Kind) < NumKinds {
		m.byKind[e.Kind]++
	}
	for len(m.byNode) <= e.Node {
		m.byNode = append(m.byNode, 0)
	}
	m.byNode[e.Node]++
	if !m.any || e.At < m.first {
		m.first = e.At
	}
	if e.At > m.last {
		m.last = e.At
	}
	m.any = true
}

// MetricsSummary is the JSON-marshalable digest of a Metrics sink.
type MetricsSummary struct {
	Total   uint64            `json:"total_events"`
	FirstNs int64             `json:"first_ns"`
	LastNs  int64             `json:"last_ns"`
	ByKind  map[string]uint64 `json:"by_kind"`
	ByNode  []uint64          `json:"by_node"`
}

// Summary digests the counts. The by-kind map holds only kinds that fired.
func (m *Metrics) Summary() MetricsSummary {
	s := MetricsSummary{
		Total:   m.total,
		FirstNs: int64(m.first),
		LastNs:  int64(m.last),
		ByKind:  make(map[string]uint64),
		ByNode:  append([]uint64(nil), m.byNode...),
	}
	for k, n := range m.byKind {
		if n > 0 {
			s.ByKind[Kind(k).String()] = n
		}
	}
	return s
}

// maxNode bounds the node ids CheckJSONL accepts: its per-node counts are
// dense, so a hostile id must not size them. Simulated machines are far
// smaller.
const maxNode = 1 << 16

// CheckJSONL validates a stream written by the JSONL sink against its
// schema: every line a JSON object with exactly the fields at (an integer
// ≥ 0), node (an integer in [0, maxNode)), kind (the name of a Kind) and
// what (a non-empty string), and at least one line. It returns the summary a
// Metrics sink would have made of the stream. A non-nil sum — the Metrics
// summary of the same run — must equal it in every field, since the two
// sinks observed one event sequence.
func CheckJSONL(r io.Reader, sum *MetricsSummary) (MetricsSummary, error) {
	kinds := make(map[string]Kind, NumKinds)
	for k := range kindNames {
		kinds[kindNames[k]] = Kind(k)
	}
	m := NewMetrics()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		// Raw fields first, so a missing or extra field fails instead of
		// decoding to a zero value or vanishing.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return MetricsSummary{}, fmt.Errorf("line %d: not a JSON object: %v", line, err)
		}
		for _, field := range []string{"at", "node", "kind", "what"} {
			if _, ok := raw[field]; !ok {
				return MetricsSummary{}, fmt.Errorf("line %d: missing field %q", line, field)
			}
		}
		var e jsonlEvent
		err := json.Unmarshal(sc.Bytes(), &e)
		kind, known := kinds[e.Kind]
		switch {
		case len(raw) != 4:
			err = fmt.Errorf("undocumented fields in %s", sc.Bytes())
		case err != nil:
		case e.At < 0:
			err = fmt.Errorf("negative at %d", e.At)
		case e.Node < 0 || e.Node >= maxNode:
			err = fmt.Errorf("node %d out of range", e.Node)
		case !known:
			err = fmt.Errorf("unknown kind %q", e.Kind)
		case e.What == "":
			err = errors.New("empty what")
		}
		if err != nil {
			return MetricsSummary{}, fmt.Errorf("line %d: %v", line, err)
		}
		m.Event(Event{At: sim.Time(e.At), Node: int(e.Node), Kind: kind, What: e.What})
	}
	if err := sc.Err(); err != nil {
		return MetricsSummary{}, err
	}
	got := m.Summary()
	if got.Total == 0 {
		return got, errors.New("empty stream")
	}
	if sum == nil {
		return got, nil
	}
	return got, got.differs(*sum)
}

// differs names the first field in which sum disagrees with s, the
// stream's own summary; nil when they are equal.
func (s MetricsSummary) differs(sum MetricsSummary) error {
	fields := func(m MetricsSummary) []string {
		return []string{fmt.Sprint(m.Total), fmt.Sprint(m.FirstNs), fmt.Sprint(m.LastNs), fmt.Sprint(m.ByNode), fmt.Sprint(m.ByKind)}
	}
	stream, summary := fields(s), fields(sum)
	for i, name := range []string{"total_events", "first_ns", "last_ns", "by_node", "by_kind"} {
		if summary[i] != stream[i] {
			return fmt.Errorf("summary %s = %s, stream has %s", name, summary[i], stream[i])
		}
	}
	return nil
}
