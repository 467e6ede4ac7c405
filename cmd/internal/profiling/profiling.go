// Package profiling adds -cpuprofile and -memprofile to the cenju4
// commands. Both write runtime/pprof files (gzip-compressed protocol
// buffers) that `go tool pprof` reads. It lives under cmd/ so that no
// simulation package imports runtime/pprof.
package profiling

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered on a flag set.
type Flags struct {
	cpu, mem string
	cpuFile  *os.File
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	p := &Flags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile (pprof format) to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (pprof format) to this file on exit")
	return p
}

// Start begins the CPU profile, if -cpuprofile was given.
func (p *Flags) Start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop ends the CPU profile and writes the heap profile, whichever were
// requested, logging any error. Later calls do nothing, so a command may
// call it both before an early os.Exit and in a deferred call.
func (p *Flags) Stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			log.Printf("cpuprofile: %v", err)
		}
		p.cpuFile = nil
	}
	if p.mem != "" {
		if err := writeHeap(p.mem); err != nil {
			log.Printf("memprofile: %v", err)
		}
		p.mem = ""
	}
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile reports the last completed collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
