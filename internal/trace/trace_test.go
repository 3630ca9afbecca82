package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sim"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Event(Event{At: int64ToTime(i), Node: i, Kind: EvSend, What: "x"})
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d, want 3/3", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Node != i {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
}

func TestRingWrapsOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Event(Event{At: int64ToTime(i), Node: i, Kind: EvDispatch, What: fmt.Sprintf("ev%d", i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	want := []int{6, 7, 8, 9}
	for i := range want {
		if evs[i].Node != want[i] {
			t.Fatalf("retained = %v, want nodes %v", evs, want)
		}
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(8)
	r.Event(Event{At: 2300, Node: 0, Kind: EvSend, What: "ping -> obj1"})
	r.Event(Event{At: 4600, Node: 1, Kind: EvRetry, What: "cat-1 seq 3"})
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"send", "ping -> obj1", "retry", "n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 2000; i++ {
		r.Event(Event{Kind: EvSend})
	}
	if r.Len() != 1024 {
		t.Fatalf("default capacity = %d, want 1024", r.Len())
	}
}

func TestKindString(t *testing.T) {
	if EvSchedule.String() != "schedule" {
		t.Error("kind name wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still format")
	}
}

// TestCheckJSONL holds the stream check to each way a JSONL stream can break
// its schema, and a good stream's per-kind line counts to what was written.
// The check reads the sink's own layout alone: valid JSON laid out any other
// way is refused.
func TestCheckJSONL(t *testing.T) {
	var stream bytes.Buffer
	sink := NewJSONL(&stream)
	for _, e := range []Event{{100, 0, EvSend, "a <- b & c"}, {250, 2, EvDispatch, "b"}, {180, 1, EvSend, "c"}} {
		sink.Event(e)
	}
	good := stream.String()
	var last bytes.Buffer
	NewJSONL(&last).Event(Event{math.MaxInt64, 0, EvCrash, "last"})
	if lines, err := CheckJSONL(&last); err != nil || lines[EvCrash] != 1 {
		t.Errorf("a sink-written event at MaxInt64: CheckJSONL %v, %v", lines, err)
	}
	if !strings.Contains(good, `"what":"a <- b & c"`) {
		t.Errorf("the sink escapes HTML:\n%s", good)
	}
	const layout = "line 1: not in the sink's layout"
	for _, tc := range []struct {
		name, stream string
		want         string
	}{
		{"schema", good, ""},
		{"not an object", "[1,2]\n", layout},
		{"missing field", `{"at":5,"node":0,"kind":"send"}`, layout},
		{"extra field", `{"at":5,"node":0,"kind":"send","what":"x","lane":3}`, layout},
		{"unknown kind", good + `{"at":5,"node":0,"kind":"teleport","what":"x"}`, `line 4: unknown kind "teleport"`},
		{"negative at", `{"at":-1,"node":0,"kind":"send","what":"x"}`, "line 1: negative at -1"},
		{"negative node", `{"at":5,"node":-1,"kind":"send","what":"x"}`, "line 1: node -1 out of range"},
		{"huge node", `{"at":5,"node":1099511627776,"kind":"send","what":"x"}`, "line 1: node 1099511627776 out of range"},
		{"empty what", `{"at":5,"node":0,"kind":"send","what":""}`, "line 1: empty what"},
		{"field case", `{"AT":5,"node":0,"kind":"send","what":"x"}`, layout},
		{"bad escape", `{"at":5,"node":0,"kind":"send","what":"a\q"}`, layout},
		{"short escape", `{"at":5,"node":0,"kind":"send","what":"a\u00"}`, layout},
		{"quote in what", `{"at":5,"node":0,"kind":"send","what":"a"b"}`, layout},
		{"control byte", "{\"at\":5,\"node\":0,\"kind\":\"send\",\"what\":\"a\tb\"}", layout},
		{"leading zero", `{"at":05,"node":0,"kind":"send","what":"x"}`, layout},
		{"quote in kind", `{"at":5,"node":0,"kind":"se"nd","what":"x"}`, layout},
		{"float at", `{"at":5.5,"node":0,"kind":"send","what":"x"}`, layout},
		{"spaced", strings.ReplaceAll(good, ",", ", "), layout},
		{"at past int64", `{"at":9223372036854775808,"node":0,"kind":"send","what":"x"}`, layout},
		{"20-digit at", `{"at":10000000000000000000,"node":0,"kind":"send","what":"x"}`, layout},
		{"least at", `{"at":-9223372036854775808,"node":0,"kind":"send","what":"x"}`, "line 1: negative at -9223372036854775808"},
		{"empty stream", "", "empty stream"},
	} {
		lines, err := CheckJSONL(strings.NewReader(tc.stream))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && (lines[EvSend] != 2 || lines[EvDispatch] != 1 || lines[EvRetry] != 0):
			t.Errorf("%s: line counts %v, want 2 send and 1 dispatch", tc.name, lines)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v lacks %q", tc.name, err, tc.want)
		}
	}
}

// decodeLine decodes one line with encoding/json, numbers kept as written.
func decodeLine(b []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the object: %v", err)
	}
	return m, nil
}

// FuzzCheckJSONL holds CheckJSONL to encoding/json as a reference. Every
// stream it accepts decodes line by line to objects with exactly the four
// fields, holding the values sinkLine read and the kinds it counted; and
// every event the sink writes (at ≥ 0, a node below 65 536, a known kind, a
// non-empty valid-UTF-8 what) is accepted and decodes to itself.
func FuzzCheckJSONL(f *testing.F) {
	var seed bytes.Buffer
	sink := NewJSONL(&seed)
	sink.Event(Event{152090, 3, EvSend, "nq.node <- nq.expand (dormant mode)"})
	sink.Event(Event{7, 0, EvRetry, "cat-1 seq 3"})
	f.Add(seed.Bytes(), int64(0), uint16(0), uint8(0), "<>&\"\\")
	f.Add([]byte(`{"at":5,"node":0,"kind":"send","what":"a\u00e9\n"}`), int64(1)<<40, uint16(65535), uint8(EvRestore), "\x00\x1f\u2028é日本")
	f.Add([]byte("{\"at\":1,\"node\":2,\"kind\":\"ack\",\"what\":\"\xff\"}\r\n"), int64(-5), uint16(9), uint8(200), "x")
	f.Add([]byte(`{"at":999999999999999999,"node":0,"kind":"send","what":"x"}`), int64(1e18), uint16(1), uint8(EvCrash), "crash")
	f.Add([]byte(`{"at":9223372036854775807,"node":65535,"kind":"send","what":"x"}`), int64(math.MaxInt64), uint16(2), uint8(EvSend), "x")
	f.Fuzz(func(t *testing.T, stream []byte, at int64, node uint16, kind uint8, what string) {
		if lines, err := CheckJSONL(bytes.NewReader(stream)); err == nil {
			var decoded [NumKinds]uint64
			sc := bufio.NewScanner(bytes.NewReader(stream))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				m, err := decodeLine(sc.Bytes())
				if err != nil {
					t.Fatalf("accepted line %q does not decode: %v", sc.Bytes(), err)
				}
				a, n, k, _, _ := sinkLine(sc.Bytes())
				w, ok := m["what"].(string)
				if len(m) != 4 || m["at"] != json.Number(strconv.FormatInt(a, 10)) ||
					m["node"] != json.Number(strconv.FormatInt(n, 10)) || m["kind"] != string(k) || !ok || w == "" {
					t.Fatalf("accepted line %q decodes to %v", sc.Bytes(), m)
				}
				for i, name := range kindNames {
					if name == string(k) {
						decoded[i]++
					}
				}
			}
			if decoded != lines {
				t.Fatalf("CheckJSONL counted %v, the decoder %v", lines, decoded)
			}
		}
		if at < 0 {
			at = ^at
		}
		if what == "" || !utf8.ValidString(what) {
			return
		}
		e := Event{sim.Time(at), int(node), Kind(int(kind) % NumKinds), what}
		var out bytes.Buffer
		sink := NewJSONL(&out)
		sink.Event(e)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		lines, err := CheckJSONL(bytes.NewReader(out.Bytes()))
		if err != nil || lines[e.Kind] != 1 {
			t.Fatalf("the sink wrote %q: CheckJSONL %v, %v", out.Bytes(), lines, err)
		}
		m, err := decodeLine(bytes.TrimSuffix(out.Bytes(), []byte("\n")))
		if err != nil || m["at"] != json.Number(strconv.FormatInt(at, 10)) || m["node"] != json.Number(strconv.Itoa(int(node))) ||
			m["kind"] != e.Kind.String() || m["what"] != what {
			t.Fatalf("%+v was written as %q, which decodes to %v (%v)", e, out.Bytes(), m, err)
		}
	})
}

func int64ToTime(i int) sim.Time { return sim.Time(i) }
