package misc

import (
	"testing"

	abcl "repro"
)

func TestCounter(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(1))
	cls, inc, add, get := BuildCounter(sys)

	kick := sys.Pattern("t.kick", 0)
	var target abcl.Address
	var got int64 = -1
	drv := sys.Class("t.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SendPast(target, inc)
		ctx.SendPast(target, inc)
		ctx.SendPast(target, add, abcl.Int(40))
		ctx.SendNow(target, get, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			got = v.Int()
		})
	})

	target = sys.NewObjectOn(0, cls)
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterAcrossNodes(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(4))
	cls, inc, _, get := BuildCounter(sys)

	kick := sys.Pattern("t.kick", 0)
	var target abcl.Address
	results := make([]int64, 0, 3)
	drv := sys.Class("t.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SendPast(target, inc)
		ctx.SendNow(target, get, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			results = append(results, v.Int())
		})
	})

	target = sys.NewObjectOn(3, cls)
	for n := 0; n < 3; n++ {
		d := sys.NewObjectOn(n, drv)
		sys.Send(d, kick)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d replies, want 3", len(results))
	}
	// Each driver read the counter after at least its own increment; the
	// final value across all gets must include all three increments.
	max := int64(0)
	for _, v := range results {
		if v > max {
			max = v
		}
	}
	if max != 3 {
		t.Fatalf("max observed counter = %d, want 3", max)
	}
}

func TestBoundedBufferPutThenTake(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(1))
	bb := BuildBoundedBuffer(sys)

	kick := sys.Pattern("t.kick", 0)
	var buf abcl.Address
	var got []int64
	drv := sys.Class("t.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SendPast(buf, bb.Put, abcl.Int(11))
		ctx.SendNow(buf, bb.Take, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			got = append(got, v.Int())
		})
	})

	buf = sys.NewObjectOn(0, bb.Cls)
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("take got %v, want [11]", got)
	}
}

func TestBoundedBufferTakeBeforePut(t *testing.T) {
	// Consumer asks first; the buffer selectively waits for the put.
	sys := abcl.MustNewSystem(abcl.WithNodes(2))
	bb := BuildBoundedBuffer(sys)

	kickC := sys.Pattern("t.kickc", 0)
	kickP := sys.Pattern("t.kickp", 0)
	var buf abcl.Address
	var got int64 = -1
	consumer := sys.Class("t.consumer", 0, nil)
	consumer.Method(kickC, func(ctx *abcl.Ctx) {
		ctx.SendNow(buf, bb.Take, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			got = v.Int()
		})
	})
	producer := sys.Class("t.producer", 0, nil)
	producer.Method(kickP, func(ctx *abcl.Ctx) {
		ctx.Charge(10000) // arrive well after the take
		ctx.SendPast(buf, bb.Put, abcl.Int(33))
	})

	buf = sys.NewObjectOn(0, bb.Cls)
	c := sys.NewObjectOn(1, consumer)
	p := sys.NewObjectOn(1, producer)
	sys.Send(c, kickC)
	sys.Send(p, kickP)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Fatalf("take got %d, want 33", got)
	}
}

func TestBoundedBufferOrdering(t *testing.T) {
	// Multiple puts from one producer must be consumed in order.
	sys := abcl.MustNewSystem(abcl.WithNodes(1))
	bb := BuildBoundedBuffer(sys)

	kickP := sys.Pattern("t.kickp", 0)
	kickC := sys.Pattern("t.kickc", 1)
	var buf abcl.Address
	var got []int64
	producer := sys.Class("t.producer", 0, nil)
	producer.Method(kickP, func(ctx *abcl.Ctx) {
		for i := int64(1); i <= 3; i++ {
			ctx.SendPast(buf, bb.Put, abcl.Int(i))
		}
	})
	var consume func(ctx *abcl.Ctx, left int64)
	consume = func(ctx *abcl.Ctx, left int64) {
		if left == 0 {
			return
		}
		ctx.SendNow(buf, bb.Take, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			got = append(got, v.Int())
			consume(ctx, left-1)
		})
	}
	consumer := sys.Class("t.consumer", 0, nil)
	consumer.Method(kickC, func(ctx *abcl.Ctx) { consume(ctx, ctx.Arg(0).Int()) })

	buf = sys.NewObjectOn(0, bb.Cls)
	p := sys.NewObjectOn(0, producer)
	c := sys.NewObjectOn(0, consumer)
	sys.Send(p, kickP)
	sys.Send(c, kickC, abcl.Int(3))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("consumed %v, want [1 2 3]", got)
	}
}

func TestForkJoin(t *testing.T) {
	for _, tc := range []struct {
		depth, nodes int
		want         int64
	}{
		{0, 1, 1},
		{3, 1, 8},
		{5, 4, 32},
		{8, 16, 256},
	} {
		got, err := RunForkJoinOn(abcl.MustNewSystem(abcl.WithNodes(tc.nodes), abcl.WithPolicy(abcl.StackBased)), tc.depth)
		if err != nil {
			t.Fatalf("depth=%d nodes=%d: %v", tc.depth, tc.nodes, err)
		}
		if got != tc.want {
			t.Errorf("depth=%d nodes=%d: leaves = %d, want %d", tc.depth, tc.nodes, got, tc.want)
		}
	}
}

func TestForkJoinNaive(t *testing.T) {
	got, err := RunForkJoinOn(abcl.MustNewSystem(abcl.WithNodes(4), abcl.WithPolicy(abcl.Naive)), 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64 {
		t.Fatalf("leaves = %d, want 64", got)
	}
}
