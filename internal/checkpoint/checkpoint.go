// Package checkpoint is the consistent-snapshot and crash-recovery subsystem
// of the simulated multicomputer. It periodically captures a coordinated
// global checkpoint — a Chandy–Lamport-style consistent cut over the
// machine's FIFO links — and, when a node crash fault fires, rolls the whole
// machine back to the last complete checkpoint round and resumes execution
// from it.
//
// # Snapshot rounds
//
// Node 0 coordinates. On each interval tick it captures its own state and
// sends a marker on every outgoing channel; every other node captures its
// state on the first marker of the round it sees, then propagates markers on
// all of its own outgoing channels and acknowledges to the coordinator. The
// round is complete when the coordinator holds all n-1 acknowledgments.
// Markers ride the reliable layer's per-link sequence space (remote.SendCkpt),
// so a channel's post-snapshot traffic can never overtake its marker — the
// FIFO property the consistency of the cut rests on.
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
	"fmt"

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
// All methods run on the simulation goroutine; the subsystem is incompatible
// with the parallel executor (a restore touches every lane at once).
type Manager struct {
	rt       *core.Runtime
	l        *remote.Layer
	m        *machine.Machine
	interval sim.Time

	n       int
	round   int       // last round started
	cur     *Snapshot // in-progress round; nil when idle
	snapped []bool    // per node: captured in the current round
	acks    int       // coordinator: snapshot-acks received for the round
	stable  *Snapshot // last complete round — the restore target
}

// New builds a manager over an attached runtime/layer pair and turns on what
// it needs of them: object tracking in the runtime and retention of every
// reliable transmission in the layer. It must run before the first object is
// created or message sent. interval is the coordinator's tick period; zero
// means no periodic rounds — only the baseline round-0 checkpoint captured at
// Start (enough for crash plans that tolerate restarting from the beginning).
func New(rt *core.Runtime, l *remote.Layer, interval sim.Time) *Manager {
	g := &Manager{
		rt:       rt,
		l:        l,
		m:        rt.M,
		interval: interval,
		n:        rt.Nodes(),
	}
	g.snapped = make([]bool, g.n)
	rt.EnableSnapshots()
	l.EnableCheckpoint(g.onCkpt)
	return g
}

// Stable returns the last complete checkpoint (the current restore target).
func (g *Manager) Stable() *Snapshot { return g.stable }

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
		g.m.Eng.ScheduleFuncOn(0, mn.Lane(), c.At, func() {
			mn.BeginOutage(restart)
			g.rt.NodeRT(c.Node).C.NodeCrashes++
			g.rt.Tracef(c.At, c.Node, trace.EvCrash, "crash, restart at %v", restart)
		})
		g.m.Eng.ScheduleFuncOn(0, 0, restart, func() {
			g.restore(restart, c.Node)
		})
	}
}

// Snapshot captures a direct (marker-free) global checkpoint and promotes it
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

// capture snapshots every node directly, without markers — valid only when
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
	ln := g.m.Node(0).Lane()
	g.m.Eng.ScheduleFuncOn(ln, ln, at, func() { g.tick(at) })
}

// tick begins a snapshot round on the coordinator, unless a node is dead
// (the round could never collect its ack, so it is skipped until every node
// is back up) or the previous round is still collecting.
func (g *Manager) tick(now sim.Time) {
	// The tick chain must not keep a finished machine alive: the engine runs
	// until its queue drains, so when this tick was the last queued event the
	// application has quiesced and the periodic rounds end with it.
	if g.m.Eng.Pending() == 0 {
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
	for i := range g.snapped {
		g.snapped[i] = false
	}
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

// onCkpt runs at node d when a round-r checkpoint record is polled. On a
// marker, the first of the round captures the node, propagates markers and
// acknowledges to the coordinator; later markers of the same round (one
// arrives per inbound channel) are the cut's channel delimiters and need no
// action beyond their in-band position. At the coordinator, the n-1th
// acknowledgment completes the round.
func (g *Manager) onCkpt(d, r int, ack bool) {
	if g.cur == nil || g.cur.Round != r {
		return
	}
	if ack {
		g.acks++
		if g.acks == g.n-1 {
			g.completeRound()
		}
		return
	}
	if g.snapped[d] {
		return
	}
	g.snapNode(d)
	for p := 0; p < g.n; p++ {
		if p != d {
			g.l.SendCkpt(d, p, r, false)
		}
	}
	g.l.SendCkpt(d, 0, r, true)
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
	g.snapped[i] = true
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
// event, or between runs for a manual Restore; incompatible with the
// parallel executor.
func (g *Manager) restore(at sim.Time, node int) {
	snap := g.stable
	if snap == nil {
		panic("checkpoint: restore without a stable checkpoint")
	}
	// The in-progress round (if any) dies with the timeline that was
	// collecting it: its markers and acks are rolled back with everything
	// else.
	g.cur = nil
	g.acks = 0
	g.m.BumpEra()
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

// String describes the configuration for logs.
func (g *Manager) String() string {
	if g.interval <= 0 {
		return "checkpoint{round-0 only}"
	}
	return fmt.Sprintf("checkpoint{interval=%v}", g.interval)
}
