package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
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
		kind, err := checkLine(sc.Bytes(), kinds)
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

// checkLine holds one line to the schema and returns its kind. A line laid
// out as the sink writes it is read in one pass (sinkLine); any other is
// decoded twice, once for its field names and once for their values.
func checkLine(b []byte, kinds map[string]Kind) (Kind, error) {
	at, node, kind, what, ok := sinkLine(b)
	if !ok {
		// Field names first, so a missing or extra field fails instead of
		// decoding to a zero value or vanishing.
		if err := checkFields(b); err != nil {
			return 0, err
		}
		var e jsonlEvent
		if err := json.Unmarshal(b, &e); err != nil {
			return 0, err
		}
		at, node, kind, what = e.At, e.Node, []byte(e.Kind), []byte(e.What)
	}
	k, known := kinds[string(kind)]
	switch {
	case at < 0:
		return 0, fmt.Errorf("negative at %d", at)
	case node < 0 || node >= maxNode:
		return 0, fmt.Errorf("node %d out of range", node)
	case !known:
		return 0, fmt.Errorf("unknown kind %q", kind)
	case len(what) == 0:
		return 0, errors.New("empty what")
	}
	return k, nil
}

// sinkLine reads a line laid out exactly as the sink writes one,
// {"at":A,"node":N,"kind":"K","what":"W"}: A and N decimal integers as
// strconv writes them, K free of escapes and W a JSON string's body (so
// empty exactly when the string is). ok is false for any other line.
func sinkLine(b []byte) (at, node int64, kind, what []byte, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"at":`)); !ok {
		return
	}
	if at, b, ok = sinkInt(b, `,"node":`); !ok {
		return
	}
	if node, b, ok = sinkInt(b, `,"kind":"`); !ok {
		return
	}
	if kind, b, ok = bytes.Cut(b, []byte(`","what":"`)); !ok || bytes.ContainsAny(kind, `\"`) {
		return 0, 0, nil, nil, false
	}
	if what, ok = bytes.CutSuffix(b, []byte(`"}`)); !ok || !stringBody(what) {
		return 0, 0, nil, nil, false
	}
	return at, node, kind, what, true
}

// sinkInt reads a decimal integer of at most 18 digits, with no sign but a
// leading minus and no leading zero, up to sep, and returns what follows sep.
func sinkInt(b []byte, sep string) (v int64, rest []byte, ok bool) {
	digits, rest, ok := bytes.Cut(b, []byte(sep))
	neg := len(digits) > 0 && digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	if !ok || len(digits) == 0 || len(digits) > 18 || digits[0] == '0' && (len(digits) > 1 || neg) {
		return 0, nil, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, nil, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, rest, true
}

// stringBody reports whether s is the body of a JSON string: no quote,
// backslash or control byte but in a valid escape.
func stringBody(s []byte) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c < 0x20:
			return false
		case c != '\\':
		case i+1 < len(s) && strings.IndexByte(`"\/bfnrt`, s[i+1]) >= 0:
			i++
		case i+5 < len(s) && s[i+1] == 'u' && isHex(s[i+2]) && isHex(s[i+3]) && isHex(s[i+4]) && isHex(s[i+5]):
			i += 5
		default:
			return false
		}
	}
	return true
}

// isHex reports whether c is a hexadecimal digit.
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// checkFields holds a line to the field rules alone: a JSON object with
// exactly the fields at, node, kind and what.
func checkFields(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("not a JSON object: %v", err)
	}
	for _, field := range []string{"at", "node", "kind", "what"} {
		if _, ok := raw[field]; !ok {
			return fmt.Errorf("missing field %q", field)
		}
	}
	if len(raw) != 4 {
		return fmt.Errorf("undocumented fields in %s", b)
	}
	return nil
}
