//go:build linux

// Command peakrss runs a command and then prints its wall time and its peak
// resident set size in KiB, read from the child's resource usage (on Linux,
// getrusage's ru_maxrss is in KiB). `make peak-rss` runs abclsim under it:
//
//	go run ./cmd/peakrss abclsim -workload nqueens -n 13 -nodes 512
package main

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: peakrss command [argument...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(1)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	fmt.Printf("peakrss: wall %.2f s, peak RSS %d KiB\n", wall.Seconds(), ru.Maxrss)
	if err != nil {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(1)
	}
}
