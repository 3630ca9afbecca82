// Package checkpoint is the consistent-snapshot and crash-recovery subsystem
// of the simulated multicomputer. It periodically captures a coordinated
// global checkpoint — a consistent cut found by Lai–Yang colouring over the
// reliable layer's per-link sequence numbers — and, when a node crash fault
// fires, rolls the whole machine back to the last complete checkpoint round
// and resumes execution from it.
//
// # Snapshot rounds
//
// Node 0 coordinates. On each interval tick it snapshots itself and sends
// one request to every other node. A record is red when its sender has
// snapshotted in the round and sent it at or past the cursor its snapshot
// captured toward the receiver (remote.Checkpointer); a node snapshots on
// its request or just before it delivers its first red record, whichever
// comes first, then acks. The round completes at n-1 acks, 2(n-1) control
// records. No snapshot counts a record its sender's snapshot does not, so
// the cut is consistent. The chain of ticks ends when no object is runnable
// and no application record is undelivered; a restore re-arms it.
//
// A node's snapshot has three parts, each charged against the simulated
// stable store (machine.Cost.CkptInstr):
//
//   - language state: every hosted object with its state box, buffered
//     message queue, saved contexts and scheduling-queue position
//     (core.CaptureNode);
//   - inter-node state: sequence cursors, chunk stocks, placement state,
//     location cache (remote.CaptureRel);
//   - channel state, held implicitly: the reliable layer retains every
//     transmitted record until a completed round's receive cursors cover it.
//
// # Crash recovery
//
// A crash (fault.NodeCrash) kills its node mid-run: receive buffers, object
// state and protocol windows are volatile and lost. At restart the subsystem
// performs a global rollback: every node — not just the crashed one — is
// restored to the last complete round, the machine era is bumped so all
// in-flight packets of the rolled-back timeline are revoked, and the
// retained in-flight records of the cut are re-pended and retransmitted.
// Restoring all nodes (rather than replaying the lost node against live
// peers) is what makes recovery exact: the restored cut is a state the
// fault-free machine could have been in, and execution from it is just a
// fresh deterministic run.
package checkpoint

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Snapshot is one complete coordinated checkpoint: a consistent global state
// the machine can restart from.
type Snapshot struct {
	Round int
	At    sim.Time
	core  []*core.NodeImage
	rel   []*remote.RelImage
}

// SizeBytes reports the total modelled stable-store footprint of the round.
func (s *Snapshot) SizeBytes() int {
	total := 0
	for i := range s.core {
		total += s.core[i].SizeBytes() + s.rel[i].SizeBytes()
	}
	return total
}

// Manager drives the snapshot protocol and executes crash/restart events.
// All methods run on the simulation goroutine.
type Manager struct {
	rt       *core.Runtime
	l        *remote.Layer
	m        *machine.Machine
	interval sim.Time

	n       int
	round   int       // last round started
	cur     *Snapshot // in-progress round (a node's images set once it snaps); nil when idle
	acks    int       // coordinator: snapshot-acks received for the round
	stable  *Snapshot // last complete round — the restore target
	ticking bool      // a coordinator tick is armed
}

// New builds a manager over an attached runtime/layer pair and turns on what
// it needs of them: object tracking in the runtime and retention of every
// reliable transmission in the layer. It must run before the first object is
// created or message sent. interval is the coordinator's tick period; zero
// means no periodic rounds — only the baseline round-0 checkpoint captured at
// Start (enough for crash plans that tolerate restarting from the beginning).
func New(rt *core.Runtime, l *remote.Layer, interval sim.Time) *Manager {
	g := &Manager{rt: rt, l: l, m: rt.M, interval: interval, n: rt.Nodes()}
	rt.EnableSnapshots()
	l.EnableCheckpoint(g)
	return g
}

// Rounds returns the number of completed snapshot rounds, including the
// baseline round 0.
func (g *Manager) Rounds() int {
	if g.stable == nil {
		return 0
	}
	return g.stable.Round + 1
}

// Start captures the baseline round-0 checkpoint, schedules the periodic
// rounds, and installs the crash/restart events of the plan. Must run after
// the application's setup (classes defined, bootstrap objects created,
// initial messages injected) and before the machine runs: the baseline
// checkpoint is trivially consistent because no event has fired yet, which
// also covers crashes that strike before the first periodic round completes.
func (g *Manager) Start(crashes []fault.NodeCrash) {
	g.rt.Freeze()
	g.stable = g.capture(0, 0)
	if g.interval > 0 {
		g.scheduleTick(g.interval)
	}
	for _, c := range crashes {
		c := c
		mn := g.m.Node(c.Node)
		restart := c.At + c.RestartAfter
		g.m.Eng.ScheduleFuncOn(mn.Lane(), c.At, func() {
			mn.BeginOutage(restart)
			g.rt.NodeRT(c.Node).C.NodeCrashes++
			g.rt.Tracef(c.At, c.Node, trace.EvCrash, "crash, restart at %v", restart)
		})
		g.m.Eng.ScheduleFuncOn(0, restart, func() {
			g.restore(restart, c.Node)
		})
	}
}

// Snapshot captures a direct (round-free) global checkpoint and promotes it
// to the stable restore target. Valid only when the machine is quiescent —
// between Run calls no event is in flight, so every direct cut is consistent.
func (g *Manager) Snapshot() *Snapshot {
	g.round++
	g.stable = g.capture(g.round, g.m.MaxClock())
	return g.stable
}

// Restore rolls the whole machine back to the last stable checkpoint. Valid
// only when the machine is quiescent; the next Run resumes execution from
// the restored state.
func (g *Manager) Restore() {
	g.restore(g.m.MaxClock(), -1)
}

// capture snapshots every node directly, without a round — valid only when
// no event is in flight (round 0, or a quiescent machine).
func (g *Manager) capture(round int, at sim.Time) *Snapshot {
	snap := &Snapshot{Round: round, At: at,
		core: make([]*core.NodeImage, g.n), rel: make([]*remote.RelImage, g.n)}
	g.cur = snap
	for i := 0; i < g.n; i++ {
		g.snapNode(i)
	}
	g.cur = nil
	g.l.CkptStableTrim(snap.rel)
	return snap
}

// scheduleTick arms the coordinator's next interval tick.
func (g *Manager) scheduleTick(at sim.Time) {
	g.ticking = true
	ln := g.m.Node(0).Lane()
	g.m.Eng.ScheduleFuncOn(ln, at, func() { g.tick(at) })
}

// tick begins a snapshot round on the coordinator, unless the application
// has finished (the chain ends), a node is dead (the round could never
// collect its ack) or the previous round is still collecting.
func (g *Manager) tick(now sim.Time) {
	if !g.appPending() {
		g.ticking = false
		return
	}
	g.scheduleTick(now + g.interval)
	if g.cur != nil {
		return
	}
	for i := 0; i < g.n; i++ {
		if g.m.Node(i).Down(now) {
			return
		}
	}
	g.round++
	g.cur = &Snapshot{Round: g.round, At: now,
		core: make([]*core.NodeImage, g.n), rel: make([]*remote.RelImage, g.n)}
	g.acks = 0
	g.m.Node(0).SyncClock(now)
	g.snapNode(0)
	for d := 1; d < g.n; d++ {
		g.l.SendCkpt(0, d, g.round, false)
	}
	if g.n == 1 {
		g.completeRound()
	}
}

// appPending reports whether the application has work left: an object on
// a scheduling queue, or an application record sent and not yet delivered.
func (g *Manager) appPending() bool {
	for i := 0; i < g.n; i++ {
		if g.rt.NodeRT(i).SchedQueueLen() > 0 {
			return true
		}
	}
	return g.l.CkptAppPending()
}

// Colour runs at node d before it delivers record seq from src: an
// unsnapped node snapshots before its first red record (a request is red)
// and acknowledges to the coordinator.
func (g *Manager) Colour(d, src int, seq uint64) {
	if g.cur == nil || g.cur.rel[d] != nil || g.cur.rel[src] == nil || seq < g.cur.rel[src].SendCursor(d) {
		return
	}
	g.snapNode(d)
	g.l.SendCkpt(d, 0, g.cur.Round, true)
}

// Acked runs at the coordinator for a snapshot acknowledgment: the n-1th
// of the round completes it.
func (g *Manager) Acked(r int) {
	if g.cur == nil || g.cur.Round != r {
		return
	}
	if g.acks++; g.acks == g.n-1 {
		g.completeRound()
	}
}

// completeRound promotes the collected round to the stable restore target,
// lets the reliable layer free retained records the round's receive cursors
// cover, and drops the previous stable round.
func (g *Manager) completeRound() {
	snap := g.cur
	g.cur = nil
	g.stable = snap
	g.l.CkptStableTrim(snap.rel)
	g.rt.NodeRT(0).C.CkptRounds++
	g.rt.Tracef(snap.At, 0, trace.EvCkptRound,
		"round %d complete (%d bytes)", snap.Round, snap.SizeBytes())
}

// snapNode captures one node's language and inter-node state into the
// current round and charges the stable-store write.
func (g *Manager) snapNode(i int) {
	ci := g.rt.CaptureNode(i)
	ri := g.l.CaptureRel(i)
	g.cur.core[i] = ci
	g.cur.rel[i] = ri
	bytes := ci.SizeBytes() + ri.SizeBytes()
	mn := g.m.Node(i)
	mn.ChargeTo(profile.Ckpt, g.m.Cfg.Cost.CkptInstr(bytes))
	if np := mn.Prof(); np != nil {
		np.CountEvent(profile.Ckpt, mn.Now())
		np.StableWrite(bytes)
	}
	c := &mn.C
	c.CkptSaves++
	c.CkptBytes += uint64(bytes)
	g.rt.Tracef(mn.Now(), i, trace.EvCkptSave,
		"snapshot round %d: %d objects, %d bytes", g.cur.Round, ci.Objects(), bytes)
}

// restore executes a global rollback: the whole machine returns to the last
// complete checkpoint round and execution resumes from it. node is the
// crashed node whose restart triggered the rollback, or -1 for a manual
// Restore. It is one pass that leaves nothing for later: each node is
// restored, charged the stable-store read and re-sends the cut's in-flight
// records before any event of the restored timeline runs, so no send of
// that timeline can take a sequence number the replay re-pends. A node
// still inside its own crash outage is restored but neither charged nor
// replayed — its restart runs this whole pass again. Runs as a host-lane
// event, or between runs for a manual Restore.
func (g *Manager) restore(at sim.Time, node int) {
	snap := g.stable
	// The in-progress round (if any) dies with the timeline that was
	// collecting it: its requests and acks are rolled back with everything
	// else.
	g.cur = nil
	g.acks = 0
	g.m.BumpEra()
	if g.interval > 0 && !g.ticking { // the restored timeline has work again
		g.scheduleTick(at - at%g.interval + g.interval)
	}
	if node >= 0 {
		g.m.Node(node).EndOutage(at)
		g.rt.NodeRT(node).C.NodeRestarts++
		g.rt.Tracef(at, node, trace.EvRestore,
			"restart: global rollback to round %d (captured at %v)", snap.Round, snap.At)
	} else {
		g.rt.Tracef(at, 0, trace.EvRestore,
			"manual rollback to round %d (captured at %v)", snap.Round, snap.At)
	}
	for i := 0; i < g.n; i++ {
		mn := g.m.Node(i)
		mn.DropRx()
		g.rt.RestoreNode(snap.core[i])
		g.l.CkptRestoreNode(snap.rel[i])
		if mn.Down(at) {
			continue
		}
		mn.SyncClock(at)
		bytes := snap.core[i].SizeBytes() + snap.rel[i].SizeBytes()
		mn.ChargeTo(profile.Ckpt, g.m.Cfg.Cost.RestoreInstr(bytes))
		if np := mn.Prof(); np != nil {
			np.StableWrite(bytes)
		}
		g.rt.NodeRT(i).C.ReplayedMsgs += uint64(g.l.CkptReplayNode(i, snap.rel))
		mn.Wake()
	}
}
