package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// JSONL streams every event as one JSON object per line:
//
//	{"at":152090,"node":3,"kind":"send","what":"nq.node <- nq.expand (dormant mode)"}
//
// HTML escaping is off, so "<-" is written as is. Serialization happens
// inside Event, so nothing of the event is retained. Output is
// byte-deterministic for a deterministic event stream (same seed ⇒
// identical file), which the golden-file test relies on. Write errors are
// sticky: the first one is kept, subsequent events are dropped, and the
// caller checks Err after the run.
type JSONL struct {
	enc *json.Encoder
	err error
}

// NewJSONL returns a streaming JSONL sink writing to w. Wrap w in a
// bufio.Writer for file output; the sink never flushes.
func NewJSONL(w io.Writer) *JSONL {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &JSONL{enc: enc}
}

// jsonlEvent is the wire schema of one line.
type jsonlEvent struct {
	At   int64  `json:"at"`
	Node int64  `json:"node"`
	Kind string `json:"kind"`
	What string `json:"what"`
}

// Event implements Sink.
func (j *JSONL) Event(e Event) {
	if j.err == nil {
		j.err = j.enc.Encode(jsonlEvent{At: int64(e.At), Node: int64(e.Node), Kind: e.Kind.String(), What: e.What})
	}
}

// Err returns the first write or marshal error, if any.
func (j *JSONL) Err() error { return j.err }

// maxNode bounds the node ids CheckJSONL accepts: no simulated machine has
// that many nodes (machine.MaxNodes is one fewer), so a larger id is no
// node's.
const maxNode = 1 << 16

// CheckJSONL validates a stream written by the JSONL sink against its
// schema: at least one line, and every line laid out as the sink writes it
// (sinkLine), with at ≥ 0, node in [0, maxNode), kind the name of a Kind
// and what a non-empty string. It returns the number of lines of each
// kind, indexed by Kind.
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

// checkLine holds one line to the schema and returns its kind.
func checkLine(b []byte, kinds map[string]Kind) (Kind, error) {
	at, node, kind, what, ok := sinkLine(b)
	k, known := kinds[string(kind)]
	switch {
	case !ok:
		return 0, errors.New(`not in the sink's layout {"at":A,"node":N,"kind":"K","what":"W"}`)
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
// empty exactly when the string is). ok is false for any other line: the
// sink writes no other layout, so none is read.
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

// sinkInt reads a decimal integer that fits an int64, with no sign but a
// leading minus and no leading zero, up to sep, and returns what follows sep.
func sinkInt(b []byte, sep string) (v int64, rest []byte, ok bool) {
	digits, rest, ok := bytes.Cut(b, []byte(sep))
	neg := len(digits) > 0 && digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	if !ok || len(digits) == 0 || digits[0] == '0' && (len(digits) > 1 || neg) {
		return 0, nil, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if c < '0' || c > '9' || u > (limit-d)/10 {
			return 0, nil, false
		}
		u = u*10 + d
	}
	if v = int64(u); neg {
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
