package profiling

import (
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesAreGzipStreams: both flags produce non-empty gzip streams,
// the framing of every pprof file.
func TestProfilesAreGzipStreams(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	p.Stop()
	p.Stop() // a second call is a no-op
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: not a gzip stream: %v", path, err)
		}
		body, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty profile", path)
		}
	}
}
