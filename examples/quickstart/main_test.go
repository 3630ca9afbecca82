package main

// Example runs the program and pins its output: every line is a
// deterministic function of the simulated run.
func Example() {
	main()
	// Output:
	// [node 3, t=15.734µs] hello, AP1000!
	// [node 3, t=22.542µs] hello, PPOPP'93!
	// [node 0, t=39.232µs] greeter handled 2 greetings
	//
	// finished at t=40.060µs: 4 remote messages, 0 local, utilization 29%
}
