package main

// Example runs the program and pins its output: every line is a
// deterministic function of the simulated run.
func Example() {
	main()
	// Output:
	// ring of 8 objects, 20 laps, over a lossy interconnect (seed 42)
	//   token count     160 (expected 160)
	//   elapsed         2.540ms
	//   injected        drops=32 dups=18
	//   repaired        retransmits=31 dup-suppressed=25 reordered-held=0
	//   delivered       160/160 reliable messages, lost=0
}
