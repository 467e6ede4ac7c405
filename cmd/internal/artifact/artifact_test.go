package artifact

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/metrics"
	"cenju4/internal/trace"
)

// TestMetricsWritesCanonicalJSON: the file holds exactly what
// Registry.WriteJSON renders.
func TestMetricsWritesCanonicalJSON(t *testing.T) {
	reg := metrics.New()
	reg.Counter("a/b").Add(3)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := Metrics(path, reg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := reg.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file %q, want %q", got, want.Bytes())
	}
}

// TestTraceWarnsOnTruncation: a collector that dropped events yields a
// valid trace file and one stderr warning naming the bound and the file.
func TestTraceWarnsOnTruncation(t *testing.T) {
	col := trace.NewCollector(1)
	for i := 0; i < 3; i++ {
		col.Record(core.TraceEvent{})
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	path := filepath.Join(t.TempDir(), "t.json")
	if err := Trace(path, "-trace-max 1", col.Stream("run")); err != nil {
		t.Fatal(err)
	}
	want := "trace truncated: 2 events beyond -trace-max 1 (truncation is recorded in " + path + ")"
	if !strings.Contains(logged.String(), want) {
		t.Fatalf("log %q does not contain %q", logged.String(), want)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(body) {
		t.Fatal("trace file is not JSON")
	}
}
