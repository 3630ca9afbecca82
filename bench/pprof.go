package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A decoder for just enough of the pprof profile format (a gzipped
// profile.proto) to fold a CPU profile by layer without a go.mod
// requirement: samples, locations, functions and the string table.
//
// Field numbers, from github.com/google/pprof/proto/profile.proto:
//
//	Profile:  sample=2 location=4 function=5 string_table=6
//	Sample:   location_id=1 (leaf first) value=2
//	Location: id=1 line=4 (innermost inlined function first)
//	Line:     function_id=1
//	Function: id=1 name=2 (index into string_table)

// pbField is one decoded protobuf field: a varint value or a length-
// delimited payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated message")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbEach calls f for every field of message b.
func pbEach(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		fld := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			fld.val, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errTruncated
			}
			fld.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", fld.wire)
		}
		if err := f(fld); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(fld pbField, into []uint64) ([]uint64, error) {
	if fld.wire == 0 {
		return append(into, fld.val), nil
	}
	b := fld.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// stackSample is one profile sample: function names from the leaf outwards
// and the sample's last value (CPU nanoseconds in a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// parseProfile decodes a gzipped pprof profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []rawSample
		strs     []string
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			var vals []uint64
			err := pbEach(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					return pbEach(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// The layers a CPU sample folds into: one per simulator package, three for
// the Go runtime, and "other" for what is left (the abcl facade, stats,
// trace, the harness's own bookkeeping), so the layers sum to the CPU spent.
var cpuLayers = []string{"sim", "machine", "remote", "core", "apps", "go_gc", "go_alloc", "go_sched", "other"}

// Frames that mark a runtime sample as collector work or as allocation
// work, wherever in the stack they sit.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.sweepone",
		"runtime.scanobject", "runtime.markroot", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
		"runtime.memclrNoHeapPointers", "runtime.convT",
	}
)

func hasFrame(stack []string, marks []string) bool {
	for _, fn := range stack {
		for _, m := range marks {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// layerOf names the layer a sample's CPU time belongs to, from its leaf
// function; a runtime leaf is split by what the stack above it was doing.
// It returns "" for the harness's calibration kernel, which is not part of
// any repetition.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "main.calibrate"), strings.HasPrefix(leaf, "main.calPhase"):
		return ""
	case strings.HasPrefix(leaf, "repro/internal/sim."):
		return "sim"
	case strings.HasPrefix(leaf, "repro/internal/machine."):
		return "machine"
	case strings.HasPrefix(leaf, "repro/internal/remote."):
		return "remote"
	case strings.HasPrefix(leaf, "repro/internal/core."):
		return "core"
	case strings.HasPrefix(leaf, "repro/internal/apps/"), strings.HasPrefix(leaf, "main."):
		// The harness owns the all-to-all program, so its method bodies
		// are application code.
		return "apps"
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/") ||
		strings.HasPrefix(leaf, "internal/runtime/"):
		switch {
		case hasFrame(stack, gcFrames):
			return "go_gc"
		case hasFrame(stack, allocFrames):
			return "go_alloc"
		}
		return "go_sched"
	}
	return "other"
}

// foldCPU sums sample values by layer.
func foldCPU(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		if l := layerOf(s.stack); l != "" {
			out[l] += s.value
		}
	}
	return out
}
