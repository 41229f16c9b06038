package telemetry

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsPolicy: the sinks each flag combination produces — no flag
// and no keep is no recorder; any recorder arms the sentinel; a metrics
// address brings a registry and an in-memory flight ring; -trace writes
// one JSON line per step.
func TestFlagsPolicy(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	cases := []struct {
		args                     []string
		keep                     bool
		wantRec, metrics, flight bool
	}{
		{nil, false, false, false, false},
		{nil, true, true, false, false},
		{[]string{"-trace", trace}, false, true, false, false},
		{[]string{"-flightrec", dir}, false, true, false, true},
		{[]string{"-metrics-addr", "127.0.0.1:0"}, false, true, true, true},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterFlags(fs, "one line per step")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		rec, err := f.Open(tc.keep)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if rec.Enabled() != tc.wantRec {
			t.Fatalf("%v keep=%v: recorder %v, want %v", tc.args, tc.keep, rec.Enabled(), tc.wantRec)
		}
		if rec == nil {
			continue
		}
		if rec.sentinel == nil || rec.opts.Keep != tc.keep ||
			rec.Metrics().Enabled() != tc.metrics || (rec.Flight() != nil) != tc.flight {
			t.Fatalf("%v keep=%v: sentinel %v, keep %v, metrics %v, flight %v", tc.args, tc.keep,
				rec.sentinel != nil, rec.opts.Keep, rec.Metrics().Enabled(), rec.Flight() != nil)
		}
		rec.StartStep(0)
		rec.EndStep()
		if err := f.Close(); err != nil || rec.Err() != nil {
			t.Fatalf("%v: close %v, sink %v", tc.args, err, rec.Err())
		}
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(b)), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], `{"step":0`) {
		t.Fatalf("trace file: %q", b)
	}
}
