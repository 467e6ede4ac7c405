// Package artifact writes the -metrics-out and -trace-out files of the
// cenju4 commands: one writer, so every command creates, fills, closes
// and reports its observability files the same way.
package artifact

import (
	"log"
	"os"

	"cenju4/internal/metrics"
	"cenju4/internal/trace"
)

// Metrics writes reg as canonical JSON to path.
func Metrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace writes streams as one Chrome-trace-event (Perfetto-loadable)
// JSON file to path. When a collector dropped events, it logs a
// truncation warning naming bound, the capacity they went beyond; the
// file records the truncation too.
func Trace(path, bound string, streams ...trace.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	dropped, err := trace.WriteChrome(f, streams...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if dropped > 0 {
		log.Printf("trace truncated: %d events beyond %s (truncation is recorded in %s)", dropped, bound, path)
	}
	return nil
}
