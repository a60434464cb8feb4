// Package prof wires host-side CPU and heap profiling into the repo's
// commands: the -cpuprofile and -memprofile flags of benchtable and
// popcornsim, which `make profile` drives. Profiles observe the host clock
// only; they never touch the simulation, so tables are unchanged.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered by Register.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)"),
		mem: fs.String("memprofile", "", "write a host allocation profile of the run to this file (go tool pprof -sample_index=alloc_space)"),
	}
}

// Start begins CPU profiling if requested and returns the function that
// ends it and writes the allocation profile. Call stop once, after the
// measured work and before the process exits.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		if cpuFile, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if *f.mem == "" {
			return nil
		}
		memFile, err := os.Create(*f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // flush recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(memFile, 0); err != nil {
			memFile.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := memFile.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
