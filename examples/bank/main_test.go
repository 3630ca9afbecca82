package main

// Example runs the program and pins its output: every line is a
// deterministic function of the simulated run.
func Example() {
	main()
	// Output:
	//   [t= 9.206ms depositor] depositing 200
	//   [t=16.356µs account]   withdrawal of 150 waits (balance 100)
	//   [t= 9.226ms customer]  withdrew 150, balance now 150
	//   [t= 9.255ms customer]  audited balance: 150
	// done at t=9.255ms (final balance 150)
}
