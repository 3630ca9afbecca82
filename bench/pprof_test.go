package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// A minimal protobuf writer, enough to build a profile by hand.
func putVarint(b *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func putUint(b *bytes.Buffer, field int, v uint64) {
	putVarint(b, uint64(field)<<3)
	putVarint(b, v)
}

func putBytes(b *bytes.Buffer, field int, data []byte) {
	putVarint(b, uint64(field)<<3|2)
	putVarint(b, uint64(len(data)))
	b.Write(data)
}

func packed(vs ...uint64) []byte {
	var b bytes.Buffer
	for _, v := range vs {
		putVarint(&b, v)
	}
	return b.Bytes()
}

// tinyProfile has four functions and three samples; location 2 holds an
// inlined pair (function 3 inlined into function 2).
func tinyProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "repro/internal/sim.(*Engine).fire", "runtime.mallocgc", "runtime.memclrNoHeapPointers", "repro/internal/core.(*Ctx).SendPast"}
	var p bytes.Buffer
	sample := func(value uint64, locs ...uint64) {
		var s bytes.Buffer
		putBytes(&s, 1, packed(locs...))
		putBytes(&s, 2, packed(1, value))
		putBytes(&p, 2, s.Bytes())
	}
	sample(10, 1)    // sim leaf
	sample(30, 2, 3) // memclr inlined into mallocgc, called from core
	sample(5, 3, 1)  // core leaf, called from sim
	location := func(id uint64, fns ...uint64) {
		var l bytes.Buffer
		putUint(&l, 1, id)
		for _, fn := range fns {
			var line bytes.Buffer
			putUint(&line, 1, fn)
			putBytes(&l, 4, line.Bytes())
		}
		putBytes(&p, 4, l.Bytes())
	}
	location(1, 1)
	location(2, 3, 2)
	location(3, 4)
	for id := uint64(1); id <= 4; id++ {
		var f bytes.Buffer
		putUint(&f, 1, id)
		putUint(&f, 2, id) // function id n is named strs[n]
		putBytes(&p, 5, f.Bytes())
	}
	for _, s := range strs {
		putBytes(&p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestParseAndFoldTinyProfile(t *testing.T) {
	samples, err := parseProfile(tinyProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"repro/internal/sim.(*Engine).fire"}, 10},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/core.(*Ctx).SendPast"}, 30},
		{[]string{"repro/internal/core.(*Ctx).SendPast", "repro/internal/sim.(*Engine).fire"}, 5},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	if got, want := foldCPU(samples), (map[string]int64{"sim": 10, "go_alloc": 30, "core": 5}); !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
}

func TestParseProfileRejectsDamage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a profile that is not gzipped")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parsed a truncated message")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"main.calPhase", "main.calibrate"}, ""},
		{[]string{"main.buildAllToAll.func1", "repro/internal/core.(*Runtime).invoke"}, "apps"},
		{[]string{"repro/internal/apps/nqueens.safe"}, "apps"},
		{[]string{"repro/internal/machine.(*Node).Poll"}, "machine"},
		{[]string{"repro/internal/remote.(*Layer).send"}, "remote"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go_gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/sim.(*lane).push"}, "go_alloc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "go_sched"},
		{[]string{"repro.(*System).Report"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// The decoder reads what the running toolchain writes: profile the
// calibration kernel and find it in the samples.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		calibrate(1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, s := range samples {
		if len(s.stack) > 0 && strings.HasPrefix(s.stack[0], "repro/bench.cal") && s.value > 0 {
			found++
		}
	}
	if found == 0 {
		t.Errorf("no sample of the calibration kernel among %d samples", len(samples))
	}
}
