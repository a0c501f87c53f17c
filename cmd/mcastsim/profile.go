package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startCPUProfile begins CPU profiling into path and returns the function
// that stops the profiler and closes the file, reporting a failed close.
// Exactly one CPU profile may run at a time (a runtime/pprof restriction).
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeMemProfile writes a heap profile to path. A GC runs first so the
// profile reflects live objects, not garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	return f.Close()
}
