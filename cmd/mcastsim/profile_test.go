package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFilesProduced smoke-tests the -cpuprofile/-memprofile plumbing:
// both helpers must leave a non-empty pprof file behind.
func TestProfileFilesProduced(t *testing.T) {
	dir := t.TempDir()

	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := startCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode; even with
	// none, StopCPUProfile writes a valid non-empty header.
	x := 0
	for i := 0; i < 1<<22; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(cpu); err != nil {
		t.Fatal(err)
	} else if info.Size() == 0 {
		t.Fatal("CPU profile file is empty")
	}

	// A second profile must be startable after the first stopped.
	stop2, err := startCPUProfile(filepath.Join(dir, "cpu2.pprof"))
	if err != nil {
		t.Fatalf("second CPU profile: %v", err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}

	mem := filepath.Join(dir, "heap.pprof")
	if err := writeMemProfile(mem); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(mem); err != nil {
		t.Fatal(err)
	} else if info.Size() == 0 {
		t.Fatal("heap profile file is empty")
	}
}
