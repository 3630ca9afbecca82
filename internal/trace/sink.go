package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// maxNode bounds the node ids CheckJSONL accepts: no simulated machine has
// that many nodes (machine.MaxNodes is one fewer), so a larger id is no
// node's.
const maxNode = 1 << 16

// CheckJSONL validates a stream written by the JSONL sink against its
// schema: every line a JSON object with exactly the fields at (an integer
// ≥ 0), node (an integer in [0, maxNode)), kind (the name of a Kind) and
// what (a non-empty string), and at least one line. It returns the number
// of lines of each kind, indexed by Kind.
func CheckJSONL(r io.Reader) ([NumKinds]uint64, error) {
	var lines [NumKinds]uint64
	kinds := make(map[string]Kind, NumKinds)
	for k := range kindNames {
		kinds[kindNames[k]] = Kind(k)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		// Raw fields first, so a missing or extra field fails instead of
		// decoding to a zero value or vanishing.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return lines, fmt.Errorf("line %d: not a JSON object: %v", line, err)
		}
		for _, field := range []string{"at", "node", "kind", "what"} {
			if _, ok := raw[field]; !ok {
				return lines, fmt.Errorf("line %d: missing field %q", line, field)
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
			return lines, fmt.Errorf("line %d: %v", line, err)
		}
		lines[kind]++
	}
	if err := sc.Err(); err != nil {
		return lines, err
	}
	if line == 0 {
		return lines, errors.New("empty stream")
	}
	return lines, nil
}
