package cliutil

import (
	"fmt"
	"os"

	"proxygraph/internal/trace"
)

// Sinks are the files a command's -trace-out and -metrics-out flags name,
// created before the work they record so a bad path fails in milliseconds
// instead of after the run.
type Sinks struct {
	traceFile, metricsFile *os.File
}

// OpenSinks creates the -trace-out and -metrics-out files; an empty path skips
// that file, and a nil *Sinks means neither flag was given. Errors name the
// flag, and a failed -metrics-out closes an already created -trace-out file.
func OpenSinks(tracePath, metricsPath string) (*Sinks, error) {
	if tracePath == "" && metricsPath == "" {
		return nil, nil
	}
	s := &Sinks{}
	var err error
	if tracePath != "" {
		if s.traceFile, err = os.Create(tracePath); err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
	}
	if metricsPath != "" {
		if s.metricsFile, err = os.Create(metricsPath); err != nil {
			if s.traceFile != nil {
				s.traceFile.Close()
			}
			return nil, fmt.Errorf("-metrics-out: %w", err)
		}
	}
	return s, nil
}

// Write renders events into each open file and closes it: a Chrome trace-event
// JSON for -trace-out, then a Prometheus text dump of trace.Observe's registry
// for -metrics-out. After each file is complete it calls wrote with the flag
// ("-trace-out" or "-metrics-out") and the file's path, so the command prints
// its own summary line.
func (s *Sinks) Write(events []trace.Event, wrote func(flag, path string)) error {
	if f := s.traceFile; f != nil {
		if err := closeAfter(f, trace.WriteChromeTrace(f, events)); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		wrote("-trace-out", f.Name())
	}
	if f := s.metricsFile; f != nil {
		reg := trace.NewRegistry()
		trace.Observe(reg, events)
		if err := closeAfter(f, reg.WritePrometheus(f)); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		wrote("-metrics-out", f.Name())
	}
	return nil
}

// closeAfter closes f and returns the write error, or the close error when
// the write succeeded.
func closeAfter(f *os.File, err error) error {
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
