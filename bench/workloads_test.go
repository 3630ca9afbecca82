package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestAllToAllOrderIsSeeded(t *testing.T) {
	a, b, c := genAllToAll(7, smallSize), genAllToAll(7, smallSize), genAllToAll(8, smallSize)
	if !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("the same seed gave two destination orders")
	}
	if reflect.DeepEqual(a.order, c.order) {
		t.Fatal("two seeds gave the same destination order")
	}
	for s, dst := range a.order {
		got := append([]int32(nil), dst...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int32
		for d := 0; d < smallSize.nodes; d++ {
			if d != s {
				want = append(want, int32(d))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sender %d: destinations %v are not a permutation of the other nodes", s, dst)
		}
	}
}

// Every workload runs clean at a small size, repeats its digest, and the
// conservative executor reproduces the sequential one's.
func TestWorkloadsRunAndRepeat(t *testing.T) {
	digests := map[string]string{}
	for _, w := range workloads {
		in := w.gen(3, smallSize)
		first, err := runRep(w, in, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		again, err := runRep(w, w.gen(3, smallSize), nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if first.digest != again.digest || first.events != again.events {
			t.Errorf("%s: two repetitions of one seed differ: %s/%d events and %s/%d events",
				w.name, first.digest, first.events, again.digest, again.events)
		}
		if first.msgs == 0 || first.events == 0 || first.report.Sched.Elapsed <= 0 {
			t.Errorf("%s: empty run: %+v", w.name, first)
		}
		digests[w.name] = first.digest
	}
	for _, w := range workloads {
		if w.sameAs != "" && digests[w.name] != digests[w.sameAs] {
			t.Errorf("%s digest %s differs from %s digest %s", w.name, digests[w.name], w.sameAs, digests[w.sameAs])
		}
	}
	if digests["nqueens-seq"] == digests["nqueens-relbatch"] {
		t.Error("reliable+batched n-queens has the digest of the plain run: the options were not applied")
	}
}

func TestWrongAnswerFailsTheRep(t *testing.T) {
	w := findWorkload("nqueens-seq")
	in := w.gen(1, smallSize)
	in.wantSolutions++
	if _, err := runRep(w, in, nil); err == nil {
		t.Error("a wrong expected solution count did not fail the repetition")
	}
	w = findWorkload("alltoall-seq")
	in = w.gen(1, smallSize)
	in.order[0] = in.order[0][1:] // one destination never hears from node 0
	if _, err := runRep(w, in, nil); err == nil {
		t.Error("a short delivery count did not fail the repetition")
	}
}

func TestSpansNestUnderTheirRep(t *testing.T) {
	w := findWorkload("alltoall-seq")
	tr := &tracer{}
	if _, err := runRep(w, w.gen(1, smallSize), tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 1+len(spanNames) {
		t.Fatalf("got %d spans, want %d", len(tr.spans), 1+len(spanNames))
	}
	rep := tr.spans[0]
	for i, s := range tr.spans[1:] {
		if s.name != spanNames[i] || s.parent != 0 {
			t.Errorf("span %d is %q under %d, want %q under 0", i+1, s.name, s.parent, spanNames[i])
		}
		if s.start.Before(rep.start) || s.end.After(rep.end) {
			t.Errorf("span %q lies outside its repetition", s.name)
		}
	}
}
