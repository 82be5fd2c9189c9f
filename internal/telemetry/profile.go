package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile writing to prefix+".cpu.pb.gz"
// and returns a stop function that ends it and additionally captures a
// heap profile (after a forced GC) to prefix+".heap.pb.gz". It backs
// the -profile flag of every cmd/fuiov command.
func StartProfiles(prefix string) (stop func() error, err error) {
	cpuPath := prefix + ".cpu.pb.gz"
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create %s: %w", cpuPath, err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: start cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		cerr := f.Close()
		heapPath := prefix + ".heap.pb.gz"
		hf, err := os.Create(heapPath)
		if err != nil {
			return fmt.Errorf("telemetry: create %s: %w", heapPath, err)
		}
		defer hf.Close()
		runtime.GC() // materialise up-to-date allocation statistics
		if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
			return fmt.Errorf("telemetry: write heap profile: %w", err)
		}
		return cerr
	}, nil
}
