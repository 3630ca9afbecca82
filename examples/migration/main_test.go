package main

// Example runs the program and pins its output: every line is a
// deterministic function of the simulated run.
func Example() {
	main()
	// Output:
	//   [node 0, t=242.696µs] counter reads 100
	// phase 1 done at 243.984µs (local traffic, 0 remote msgs)
	//   counter migrated to node 3
	//   [node 3, t= 1.142ms] counter reads 200
	// phase 3 done at 1.144ms
	// migrations: 1, forwarded messages: 101 (stale-address traffic)
	// note: the forwarder makes old references correct, not fast —
	// clients should adopt the new address for performance.
}
