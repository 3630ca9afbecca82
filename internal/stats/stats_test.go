package stats

import "testing"

func TestZeroValueUsable(t *testing.T) {
	var c Counters
	if c.TotalMessages() != 0 || c.Creations() != 0 || c.LocalMessages() != 0 {
		t.Fatal("zero counters must report zero")
	}
	if c.DormantFraction() != 0 {
		t.Fatal("dormant fraction of zero messages must be 0")
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := Counters{
		LocalToDormant:  75,
		LocalToActive:   20,
		LocalRestores:   5,
		RemoteSends:     50,
		LocalCreations:  3,
		RemoteCreations: 7,
	}
	if got := c.LocalMessages(); got != 100 {
		t.Errorf("local messages = %d, want 100", got)
	}
	if got := c.TotalMessages(); got != 150 {
		t.Errorf("total messages = %d, want 150", got)
	}
	if got := c.Creations(); got != 10 {
		t.Errorf("creations = %d, want 10", got)
	}
	if got := c.DormantFraction(); got != 0.75 {
		t.Errorf("dormant fraction = %v, want 0.75", got)
	}
}
