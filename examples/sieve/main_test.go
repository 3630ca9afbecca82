package main

// Example runs the program and pins its output: every line is a
// deterministic function of the simulated run.
func Example() {
	main()
	// Output:
	// 168 primes below 1000 in 53.731ms on 16 nodes (utilization 16%)
	// filters created: 167   messages: local 1744 (71% to dormant), remote 14042
	// last prime: 997
}
