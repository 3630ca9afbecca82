// Package remote implements the inter-node software architecture of
// Section 5: Active-Message-style self-dispatching packet handlers
// (category 1: object messages, category 2: remote-creation requests,
// category 3: chunk-replenish replies, category 4: services such as load
// monitoring), and latency-hiding remote object creation backed by
// per-node stocks of pre-delivered memory chunks.
package remote

import "repro/internal/core"

// Placement chooses the node on which a remote create places the new
// object — the paper's "the system determines where the object is created
// based on local information" (Section 2.5).
type Placement interface {
	Name() string
	// Pick returns the target node for a creation issued from node `from`.
	// It must use only information local to `from`.
	Pick(l *Layer, from int, cl *core.Class) int
}

// RoundRobin cycles each node's creations over all nodes (including the
// creating node itself, which yields a local create).
type RoundRobin struct{}

func (RoundRobin) Name() string { return "round-robin" }

func (RoundRobin) Pick(l *Layer, from int, cl *core.Class) int {
	ns := l.nodes[from]
	ns.rrNext = (ns.rrNext + 1) % len(l.nodes)
	return ns.rrNext
}

// Random places uniformly at random using a deterministic per-node
// generator, so simulations are reproducible.
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Pick(l *Layer, from int, cl *core.Class) int {
	ns := l.nodes[from]
	return int(ns.nextRand() % uint64(len(l.nodes)))
}

// LocalOnly always creates on the requesting node; useful as a baseline and
// for single-node tests.
type LocalOnly struct{}

func (LocalOnly) Name() string { return "local" }

func (LocalOnly) Pick(l *Layer, from int, cl *core.Class) int { return from }

// LoadBased samples loadCandidates random nodes and picks the one with the
// lowest known load. Load information is piggybacked on every packet
// (category-4 service data riding along with categories 1-3), so the view
// is local and possibly stale — exactly the paper's "based on local
// information".
type LoadBased struct{}

// loadCandidates is LoadBased's sample size.
const loadCandidates = 4

func (LoadBased) Name() string { return "load-based" }

func (LoadBased) Pick(l *Layer, from int, cl *core.Class) int {
	ns := l.nodes[from]
	best := int(ns.nextRand() % uint64(len(l.nodes)))
	bestLoad := ns.knownLoad(best, l)
	for i := 1; i < loadCandidates; i++ {
		cand := int(ns.nextRand() % uint64(len(l.nodes)))
		if load := ns.knownLoad(cand, l); load < bestLoad {
			best, bestLoad = cand, load
		}
	}
	return best
}

// DepthLocal is a fork-join-friendly policy: creations spread remotely
// (randomly) while the creating node is lightly loaded, and stay local once
// the node already has queued work — a cheap approximation of the
// depth-bounded spreading used for tree-structured computations.
type DepthLocal struct{}

// depthLocalQueue is the scheduling-queue length at which DepthLocal keeps
// creations local.
const depthLocalQueue = 2

func (DepthLocal) Name() string { return "depth-local" }

func (DepthLocal) Pick(l *Layer, from int, cl *core.Class) int {
	if l.rt.NodeRT(from).SchedQueueLen() >= depthLocalQueue {
		return from
	}
	ns := l.nodes[from]
	return int(ns.nextRand() % uint64(len(l.nodes)))
}
