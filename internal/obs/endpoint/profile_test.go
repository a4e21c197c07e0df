package endpoint

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesEmptyPathsAreNoops(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestStartProfilesBadCPUPathFailsFast(t *testing.T) {
	_, err := StartProfiles(filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof"), "")
	if err == nil {
		t.Fatal("unwritable cpu path must fail StartProfiles")
	}
	if !strings.Contains(err.Error(), "cpu profile") {
		t.Errorf("error must name the cpu profile: %v", err)
	}
}

// TestStartProfilesBadHeapPathStillStopsCPU is the failing-path contract:
// when the heap path turns out to be unwritable at stop time, stop must
// still stop CPU profiling, close its file, and report the heap failure —
// not leave the profiler running with the error swallowed.
func TestStartProfilesBadHeapPathStillStopsCPU(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	badMem := filepath.Join(dir, "no-such-dir", "mem.pprof")
	stop, err := StartProfiles(cpu, badMem)
	if err != nil {
		t.Fatal(err)
	}
	stopErr := stop()
	if stopErr == nil {
		t.Fatal("stop must report the unwritable heap path")
	}
	if !strings.Contains(stopErr.Error(), "mem profile") {
		t.Errorf("stop error must name the mem profile: %v", stopErr)
	}
	// CPU profiling must be stopped despite the heap failure: starting a
	// fresh CPU profile only succeeds when none is running.
	probe := filepath.Join(dir, "probe.pprof")
	f, err := os.Create(probe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatalf("CPU profiling left running after failed stop: %v", err)
	}
	pprof.StopCPUProfile()
	// And the original CPU profile file must have been closed and flushed.
	st, err := os.Stat(cpu)
	if err != nil || st.Size() == 0 {
		t.Errorf("cpu profile not written through the heap failure: %v (size %v)", err, st)
	}
}
