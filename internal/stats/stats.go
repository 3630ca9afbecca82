// Package stats collects runtime event counters for the ABCL system: message
// sends classified by receiver mode, creations, scheduling-queue traffic,
// chunk-stock behaviour and blocking events. A machine keeps one record,
// counted into by every node and read whole by the reports.
package stats

// Counters is a set of monotonically increasing event counts. The zero value
// is ready to use. Counters is not safe for concurrent use; the
// discrete-event simulator's one goroutine owns it.
// The fields that restate other counts (a path's events: LocalTo*,
// LocalRestores, RemoteSends, RemoteDelivers, CkptSaves; a path's packets:
// AcksSent, Retransmits; NowFastPath, LocalCreations, RemoteCreations) have
// no increment site: machine.Machine.Stats fills them.
type Counters struct {
	// Intra-node message sends by receiver state at delivery time.
	LocalToDormant uint64 // invoked immediately on the sender's stack
	LocalToActive  uint64 // buffered via a queuing procedure
	LocalRestores  uint64 // awaited message restoring a waiting object
	LocalToMulti   uint64 // delivered to a multiactive (grouped) receiver

	// Inter-node traffic.
	RemoteSends    uint64 // category-1 messages sent
	RemoteDelivers uint64 // category-1 messages handled

	// Now-type sends.
	NowFastPath    uint64 // reply had arrived when checked: no unwinding
	NowBlocked     uint64 // context saved to heap frame (Figure 3)
	Replies        uint64 // reply messages delivered to reply destinations
	DroppedReplies uint64 // replies to an already-consumed destination

	// Selective reception.
	WaitFast    uint64 // awaited message already buffered: no block
	WaitBlocked uint64 // object switched to waiting mode

	// Object creation.
	LocalCreations  uint64
	RemoteCreations uint64
	StockHits       uint64 // remote creations served from the chunk stock
	StockMisses     uint64 // empty stock: blocking round trip
	FaultBuffered   uint64 // messages buffered by the generic fault table

	// Fault injection.
	LinkDrops  uint64 // packets dropped by injected link faults
	LinkDups   uint64 // extra packet copies injected by link faults
	NodePauses uint64 // execution windows deferred by injected node pauses

	// Reliable delivery (ack/retry protocol of the inter-node layer).
	RelSent        uint64 // unique reliable messages sent (excluding retries)
	RelDelivered   uint64 // unique reliable messages delivered to handlers
	Retransmits    uint64 // retransmissions after an acknowledgment timeout
	AcksSent       uint64 // acknowledgment packets transmitted by receivers
	AcksCoalesced  uint64 // acknowledgments absorbed into a cumulative ack
	DupSuppressed  uint64 // received duplicate copies discarded by dedup
	HeldOutOfOrder uint64 // messages held to restore per-link FIFO order

	// Wire-path batching (per-link aggregation of small packets).
	BatchesSent uint64 // multi-message hardware packets transmitted
	BatchedMsgs uint64 // logical messages carried inside those batches

	// Checkpointing and crash recovery.
	CkptSaves    uint64 // node snapshots written to simulated stable store
	CkptBytes    uint64 // stable-store bytes across those snapshots
	CkptRounds   uint64 // coordinated snapshot rounds completed (coordinator)
	NodeCrashes  uint64 // node crash faults
	NodeRestarts uint64 // restarts completed from a checkpoint
	ReplayedMsgs uint64 // retained in-flight messages re-sent after a restore
	CrashDrops   uint64 // packets lost at a controller while its node was down
	EraDrops     uint64 // in-flight packets revoked by a checkpoint restore

	// Scheduling.
	SchedEnqueues uint64
	SchedDequeues uint64
	Preemptions   uint64 // deep-recursion or explicit yields
	HeapFrames    uint64 // contexts saved to heap frames

	// Multiactive scheduling (compatibility groups).
	MultiImmediate  uint64 // compatible invocations started on the sender's stack
	MultiParked     uint64 // conflicting invocations buffered in a group ready queue
	MultiDispatches uint64 // parked invocations dispatched through the scheduler
}

// LocalMessages returns the count of intra-node object-to-object sends.
func (c *Counters) LocalMessages() uint64 {
	return c.LocalToDormant + c.LocalToActive + c.LocalRestores + c.LocalToMulti
}

// TotalMessages returns all object-to-object message sends (local sends plus
// remote sends; remote deliveries are the receiving half of RemoteSends and
// are not double counted).
func (c *Counters) TotalMessages() uint64 {
	return c.LocalMessages() + c.RemoteSends
}

// Creations returns all object creations.
func (c *Counters) Creations() uint64 {
	return c.LocalCreations + c.RemoteCreations
}

// LostMessages returns the number of unique reliable messages that were sent
// but never delivered. At quiescence this must be zero for the reliable
// layer's delivery guarantee to hold.
func (c *Counters) LostMessages() uint64 {
	if c.RelDelivered >= c.RelSent {
		return 0
	}
	return c.RelSent - c.RelDelivered
}

// MsgsPerBatch returns the mean number of logical messages per multi-message
// hardware packet (zero when batching never coalesced anything).
func (c *Counters) MsgsPerBatch() float64 {
	if c.BatchesSent == 0 {
		return 0
	}
	return float64(c.BatchedMsgs) / float64(c.BatchesSent)
}

// DormantFraction returns the fraction of local messages that were delivered
// to dormant objects — the quantity the paper reports as "approximately 75%"
// for the N-queens programs (Section 6.3).
func (c *Counters) DormantFraction() float64 {
	local := c.LocalMessages()
	if local == 0 {
		return 0
	}
	return float64(c.LocalToDormant) / float64(local)
}
