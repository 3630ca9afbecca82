// Package machine models a stock multicomputer in the style of the Fujitsu
// AP1000: point-to-point nodes on a torus network with asynchronous message
// passing, per-sender in-order delivery, and software-polled reception.
//
// All computation is accounted in abstract processor instructions. A Config
// converts instructions to virtual time through a cycles-per-instruction
// factor and a clock rate, so the instruction-count arguments of the paper
// (Tables 1-3) translate directly into simulated latencies.
package machine

// Cost is the instruction-count model for every primitive runtime operation.
// The defaults reproduce the breakdown published in Table 2 of the paper and
// the derived costs of Table 1. All values are in processor instructions.
type Cost struct {
	// Intra-node dormant (stack-based) send path, per Table 2.
	CheckLocality     int // locality check on every send (3)
	LookupCall        int // virtual function table lookup and call (5)
	SwitchVFTPActive  int // switch VFTP to the active-mode table (3)
	CheckMsgQueue     int // check message queue at method completion (3)
	SwitchVFTPDormant int // switch VFTP back to the dormant table (3)
	PollRemote        int // poll for remote message arrival (5)
	StackReturn       int // adjust stack pointer and return (3)

	// Intra-node active (queue-based) send path. The sum of the queueing
	// costs plus dequeue/dispatch yields the paper's ~9.6µs (~104 instr).
	FrameAlloc      int // heap frame allocation
	StoreMessage    int // copying the message into the frame
	EnqueueMsgQ     int // linking the frame into the object's message queue
	EnqueueSchedQ   int // enqueueing the object on the node scheduling queue
	DequeueDispatch int // dequeue from the scheduling queue and dispatch

	// Blocking / resumption (stack unwinding, Figure 3).
	SaveContext    int // saving locals + continuation into a heap frame
	RestoreContext int // restoring a saved context
	ReplyCheck     int // checking the reply destination after a now-send
	ReplyDestAlloc int // allocating the reply destination object
	SwitchVFTPWait int // switching to a waiting-mode table

	// Multiactive scheduling: the per-delivery compatibility check against
	// the receiver's live-invocation counts. Multiactive objects never switch
	// their table pointer, so this replaces the VFTP-switch pair of the
	// serial dormant path.
	GroupCheck int

	// Object creation.
	CreateLocal int // local object allocation + header init (~2.1µs)
	InitObject  int // lazy state-variable initialization on first message

	// Remote (inter-node) software costs, per Section 6.1.
	RemoteSendSetup   int // message setup in the sender's script (~20)
	RemoteRecvExtract int // polling, extraction, system buffer mgmt (~50)
	RemoteHandlerCall int // script (handler) invocation (~10)
	InterruptEntry    int // interrupt entry/exit when arrival is signalled
	//                       by interrupt instead of polling (Section 5)
	BatchRecvExtract int // extraction of the 2nd+ record of a batched packet:
	//                      the per-packet poll and buffer management are paid
	//                      once per physical packet, so later records only pay
	//                      record parsing and cursor advance

	// Remote creation / chunk stock management.
	StockPop     int // popping a predelivered chunk address locally
	StockPush    int // replenishing the stock on a category-3 reply
	ChunkInit    int // class-specific initialization of a chunk (category 2)
	ChunkRefill  int // allocating the replacement chunk on the target
	FaultEnqueue int // extra cost of buffering into an uninitialized chunk

	// Checkpointing: the simulated stable store (battery-backed or mirrored
	// store reachable by DMA, in the spirit of the multicomputer object-store
	// mechanisms literature). A snapshot pays a fixed setup plus a per-word
	// streaming cost for everything captured; a restore pays the symmetric
	// read-back costs.
	CkptSetup       int // per-snapshot fixed overhead (walk + DMA setup)
	CkptStoreWord   int // streaming one 8-byte word into the stable store
	RestoreSetup    int // per-restart fixed overhead (locate + DMA setup)
	RestoreLoadWord int // streaming one 8-byte word back from the stable store
}

// DefaultCost returns the calibration used throughout the paper's tables:
// dormant path 25 instructions (2.3µs at 25MHz / CPI 2.3), active path about
// 104 instructions (9.6µs), remote one-way software cost 80 instructions.
func DefaultCost() Cost {
	return Cost{
		CheckLocality:     3,
		LookupCall:        5,
		SwitchVFTPActive:  3,
		CheckMsgQueue:     3,
		SwitchVFTPDormant: 3,
		PollRemote:        5,
		StackReturn:       3,

		FrameAlloc:      20,
		StoreMessage:    10,
		EnqueueMsgQ:     15,
		EnqueueSchedQ:   15,
		DequeueDispatch: 25,

		SaveContext:    18,
		RestoreContext: 14,
		ReplyCheck:     4,
		ReplyDestAlloc: 6,
		SwitchVFTPWait: 3,
		GroupCheck:     4,

		CreateLocal: 23,
		InitObject:  6,

		RemoteSendSetup:   17,
		RemoteRecvExtract: 42,
		RemoteHandlerCall: 10,
		InterruptEntry:    30,
		BatchRecvExtract:  12,

		StockPop:     5,
		StockPush:    5,
		ChunkInit:    12,
		ChunkRefill:  18,
		FaultEnqueue: 4,

		CkptSetup:       120,
		CkptStoreWord:   2,
		RestoreSetup:    150,
		RestoreLoadWord: 2,
	}
}

// CkptInstr returns the modelled instruction cost of writing a snapshot of
// `bytes` bytes to the stable store.
func (c Cost) CkptInstr(bytes int) int {
	return c.CkptSetup + c.CkptStoreWord*((bytes+7)/8)
}

// RestoreInstr returns the modelled instruction cost of reading a snapshot
// of `bytes` bytes back from the stable store.
func (c Cost) RestoreInstr(bytes int) int {
	return c.RestoreSetup + c.RestoreLoadWord*((bytes+7)/8)
}

// DormantPath returns the total instruction overhead of an intra-node
// past-type message to a dormant object, excluding the method body
// (Table 2's total of 25).
func (c Cost) DormantPath() int {
	return c.CheckLocality + c.LookupCall + c.SwitchVFTPActive +
		c.CheckMsgQueue + c.SwitchVFTPDormant + c.PollRemote + c.StackReturn
}

// ActivePath returns the total instruction overhead of an intra-node message
// to an active object: buffering, scheduling-queue traffic, dispatch, and
// the method-completion epilogue (queue check, poll, return) that the
// queue-based path cannot avoid.
func (c Cost) ActivePath() int {
	return c.CheckLocality + c.LookupCall + c.FrameAlloc + c.StoreMessage +
		c.EnqueueMsgQ + c.EnqueueSchedQ + c.DequeueDispatch +
		c.CheckMsgQueue + c.PollRemote + c.StackReturn
}

// RemoteSoftwareOneWay returns the per-message software instruction cost of
// an inter-node send up to method-body start: locality check and sender
// setup (the paper's ~20), receiver extraction and handler invocation (~50
// plus ~10 script invocation), and the dormant dispatch at the receiver —
// the paper's ~80 instructions each way.
func (c Cost) RemoteSoftwareOneWay() int {
	return c.CheckLocality + c.RemoteSendSetup + c.RemoteRecvExtract +
		c.RemoteHandlerCall + c.LookupCall + c.SwitchVFTPActive
}
