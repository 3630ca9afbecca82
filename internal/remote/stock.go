package remote

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// DefaultStockDepth is the stock depth of the paper-style runs (and the
// facade's default).
const DefaultStockDepth = 2

// stockTable is one node's chunk stocks: an open-addressed table holding one
// 8-byte slot for each (target node, class) pair the node has created an
// object toward, found by its stockKey on every remote creation and every
// refill. A slot made is never removed, so the table holds exactly the pairs
// the node has touched: host state follows the node's contacts, not P×P or
// P×classes. The slot arrays are carved from the layer's arena, and a table
// that grows leaves its old array there.
//
// A stocked chunk is a count. The paper's stock holds addresses of chunks on
// the target (§5.2), and nothing can reach a stocked chunk until a creation
// pops it: the pop carves the Object then, homed on the target, so the host
// holds an Object per creation and none per idle chunk.
//
// A slot is its key in the high 32 bits, then the seeded bit (the
// pre-delivered stock has been handed over), then the 31-bit count of chunk
// addresses held. An empty slot is 0: a key is never 0.
type stockTable struct {
	slots []uint64 // a power of two long, or nil before the first slot
	used  int      // slots made
}

const (
	stockSeeded uint64 = 1 << 31
	stockCount  uint64 = stockSeeded - 1 // the count's bits; also the largest depth
	stockValue         = stockSeeded | stockCount

	stockMinSlots = 8
	maxStockClass = 1<<16 - 1
)

// stockKey packs a stock's target node and class id into a slot's key:
// target+1 (machine.MaxNodes fits 16 bits) over the class id.
func stockKey(target, class int) uint64 {
	if class > maxStockClass {
		panic(fmt.Sprintf("remote: class id %d above the chunk stock's limit of %d", class, maxStockClass))
	}
	return uint64(target+1)<<16 | uint64(class)
}

// probe returns the index of key's slot, or of the empty slot where it
// belongs, and whether the slot is key's. The table must have slots.
func (t *stockTable) probe(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the high bits of the product mix every key bit.
	i := int(key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(mask)))
	for {
		switch s := t.slots[i]; s >> 32 {
		case key:
			return i, true
		case 0:
			return i, false
		}
		i = (i + 1) & mask
	}
}

// find returns key's slot, or nil when the node has never touched the pair.
func (t *stockTable) find(key uint64) *uint64 {
	if t.slots == nil {
		return nil
	}
	if i, ok := t.probe(key); ok {
		return &t.slots[i]
	}
	return nil
}

// at returns key's slot, making it empty on first use. The table doubles
// past three quarters full.
func (t *stockTable) at(key uint64, a *sim.Arena[uint64]) *uint64 {
	if s := t.find(key); s != nil {
		return s
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = a.Slice(max(2*len(old), stockMinSlots))
		for _, s := range old {
			if s != 0 {
				i, _ := t.probe(s >> 32)
				t.slots[i] = s
			}
		}
	}
	i, _ := t.probe(key)
	t.slots[i] = key << 32
	t.used++
	return &t.slots[i]
}

// level returns the chunk addresses held for key's pair.
func (t *stockTable) level(key uint64) int {
	if s := t.find(key); s != nil {
		return int(*s & stockCount)
	}
	return 0
}

// pop takes a chunk address from key's stock, handing the pre-delivered
// stock of depth over on the pair's first creation, and reports whether
// there was one.
func (t *stockTable) pop(key uint64, depth uint64, a *sim.Arena[uint64]) bool {
	s := t.at(key, a)
	if *s&stockSeeded == 0 && depth > 0 {
		// Pre-delivery: at boot every node receives an initial stock of
		// chunk addresses for its peers. Modelled as already present (the
		// paper's "predelivered stocks") and handed over on the pair's first
		// creation, so memory follows the pairs that communicate.
		*s = *s&^stockCount | stockSeeded | depth
	}
	if *s&stockCount == 0 {
		return false
	}
	*s--
	return true
}

// refill adds a chunk address to key's stock unless it already holds depth.
func (t *stockTable) refill(key uint64, depth uint64, a *sim.Arena[uint64]) {
	if s := t.at(key, a); *s&stockCount < depth {
		*s++
	}
}

// image returns a copy of the slots made, in table order.
func (t *stockTable) image() []uint64 {
	im := make([]uint64, 0, t.used)
	for _, s := range t.slots {
		if s != 0 {
			im = append(im, s)
		}
	}
	return im
}

// restore empties every slot, then copies the image's slots back: a slot
// first made after the image stays, empty.
func (t *stockTable) restore(im []uint64) {
	for i, s := range t.slots {
		t.slots[i] = s &^ stockValue
	}
	for _, s := range im {
		i, _ := t.probe(s >> 32)
		t.slots[i] = s
	}
}
