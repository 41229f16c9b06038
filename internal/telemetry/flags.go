package telemetry

import (
	"flag"
	"fmt"
	"os"

	"afmm/internal/metrics"
)

// Flags is the telemetry flag set the command-line tools share: -trace,
// -metrics-addr and -flightrec, and the one policy for which sinks they
// produce (see Open).
type Flags struct {
	trace, metricsAddr, flightDir string
	file                          *os.File
}

// RegisterFlags registers -trace, -metrics-addr and -flightrec on fs;
// records says what one JSONL line of the trace describes.
func RegisterFlags(fs *flag.FlagSet, records string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.trace, "trace", "", "write the JSONL telemetry trace ("+records+") to this file")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve the live dashboard, Prometheus /metrics, /status, /flightrec, expvar and pprof on this address (implies a metrics registry and an in-memory flight ring)")
	fs.StringVar(&f.flightDir, "flightrec", "", "keep a flight-recorder ring of the last 32 records and dump it into this directory on faults, failed steps and sentinel anomalies (use '.' for the working directory)")
	return f
}

// Open creates the recorder the flags ask for and starts the debug server
// on -metrics-addr, announcing its address on stderr. keep retains every
// record (Options.Keep, for WriteChrome). With no flag set and keep false
// the recorder is nil, a valid no-op. Any recorder arms the sentinel; a
// metrics address implies a registry plus an in-memory flight ring, so
// /flightrec answers (dumps need -flightrec's directory). Close releases
// the trace file.
func (f *Flags) Open(keep bool) (*Recorder, error) {
	if f.trace == "" && f.metricsAddr == "" && f.flightDir == "" && !keep {
		return nil, nil
	}
	opts := Options{Keep: keep, Sentinel: &SentinelConfig{}}
	if f.trace != "" {
		tf, err := os.Create(f.trace)
		if err != nil {
			return nil, err
		}
		f.file, opts.JSONL = tf, tf
	}
	if f.metricsAddr != "" {
		opts.Metrics = metrics.NewRegistry()
	}
	if f.metricsAddr != "" || f.flightDir != "" {
		opts.Flight = NewFlightRecorder(0, f.flightDir)
	}
	rec := New(opts)
	if f.metricsAddr != "" {
		d, err := StartDebug(f.metricsAddr, rec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "debug server (dashboard, /metrics, /status, pprof) on http://%s/\n", d.Addr())
	}
	return rec, nil
}

// Close closes the trace file, if -trace opened one.
func (f *Flags) Close() error {
	if f.file == nil {
		return nil
	}
	return f.file.Close()
}
