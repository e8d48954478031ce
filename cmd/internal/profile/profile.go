// Package profile starts the CPU and heap profiles that the command-line
// tools' -cpuprofile and -memprofile flags ask for.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts CPU profiling and/or arranges a heap profile, according to
// the -cpuprofile/-memprofile flags. The returned stop function ends the
// CPU profile and writes the heap profile; call it exactly once, on the
// normal exit path (profiles are lost on fatal exits, like with `go test`).
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}
