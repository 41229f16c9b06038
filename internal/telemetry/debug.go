package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Live debug server: metrics, expvar and net/http/pprof on a private
// mux, so the solver process can be inspected mid-run (-debug-addr /
// -metrics-addr on the cmd tools) without registering handlers on
// http.DefaultServeMux. Endpoints:
//
//	/              minimal live HTML dashboard (polls /status)
//	/metrics       Prometheus text exposition of the recorder's registry
//	/status        JSON: recorder snapshot + metrics snapshot + flight state
//	/flightrec     JSON: the flight-recorder ring, oldest first
//	/debug/vars    expvar (including "afmm_telemetry", scoped per server)
//	/debug/pprof/  the standard pprof handlers
//
// Each server binds its own recorder: the "afmm_telemetry" var is
// rendered per mux, not through process-global state, so two servers in
// one process (or sequential servers in tests) cannot alias each other's
// recorders.

// DebugSnapshot returns the recorder's current aggregate view: steps
// completed, completion rate, the last step's wall clock, the sink error
// (if any), and the most recent step record. It is what the expvar
// "afmm_telemetry" var serves.
func (r *Recorder) DebugSnapshot() map[string]any {
	if r == nil {
		return map[string]any{"enabled": false}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := map[string]any{
		"enabled":    true,
		"steps_done": r.stepsDone,
	}
	if el := time.Since(r.origin).Seconds(); el > 0 {
		snap["steps_per_sec"] = float64(r.stepsDone) / el
	}
	if r.err != nil {
		snap["sink_error"] = r.err.Error()
	}
	if r.hasLast {
		snap["last_step"] = r.last
		snap["last_wall_ns"] = r.last.WallNs
	}
	if r.sentinel != nil {
		snap["anomalies"] = r.sentinel.Anomalies()
	}
	return snap
}

// DebugServer is a running debug endpoint bound to one recorder.
type DebugServer struct {
	rec  *Recorder
	srv  *http.Server
	addr string
}

// Addr returns the listening address (useful when started with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx's deadline to finish.
func (d *DebugServer) Shutdown(ctx context.Context) error { return d.srv.Shutdown(ctx) }

// Close stops the server immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }

// StartDebug starts the debug server on addr for the given recorder
// (nil exposes only pprof and the process expvars).
func StartDebug(addr string, rec *Recorder) (*DebugServer, error) {
	mux := http.NewServeMux()
	d := &DebugServer{rec: rec}
	mux.HandleFunc("/debug/vars", d.serveVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/status", d.serveStatus)
	mux.HandleFunc("/flightrec", d.serveFlight)
	mux.HandleFunc("/{$}", d.serveDashboard)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: mux}
	d.addr = ln.Addr().String()
	go d.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown/Close.
	return d, nil
}

// serveVars renders expvar-compatible JSON: every process-global expvar
// plus this server's own "afmm_telemetry" snapshot. The per-server var
// shadows any global of the same name, so the published name stays
// stable while the bound recorder is per mux.
func (d *DebugServer) serveVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	emit := func(name, value string) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", name, value)
	}
	snap, err := json.Marshal(d.rec.DebugSnapshot())
	if err == nil {
		emit("afmm_telemetry", string(snap))
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "afmm_telemetry" {
			return // shadowed by the per-server snapshot above
		}
		emit(kv.Key, kv.Value.String())
	})
	fmt.Fprintf(w, "\n}\n")
}

func (d *DebugServer) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := d.rec.Metrics()
	if !reg.Enabled() {
		http.Error(w, "no metrics registry attached (Options.Metrics)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WriteProm(w) //nolint:errcheck // client went away
}

func (d *DebugServer) serveStatus(w http.ResponseWriter, _ *http.Request) {
	status := map[string]any{
		"telemetry": d.rec.DebugSnapshot(),
	}
	if reg := d.rec.Metrics(); reg.Enabled() {
		status["metrics"] = reg.Snapshot()
	}
	if f := d.rec.Flight(); f != nil {
		status["flight"] = map[string]any{
			"retained":  len(f.Records()),
			"dumps":     f.Dumps(),
			"last_dump": f.LastDump(),
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(status) //nolint:errcheck // client went away
}

func (d *DebugServer) serveFlight(w http.ResponseWriter, _ *http.Request) {
	f := d.rec.Flight()
	if f == nil {
		http.Error(w, "no flight recorder attached (Options.Flight)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(FlightDump{ //nolint:errcheck // client went away
		Reason:  "live",
		UnixNs:  time.Now().UnixNano(),
		Steps:   len(f.Records()),
		Records: f.Records(),
	})
}

func (d *DebugServer) serveDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the minimal live view: a static page polling /status
// once a second and rendering the headline numbers plus the last step's
// phase breakdown. No dependencies, works from file:// curl or browser.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>afmm live</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}
h1{font-size:1.2em} .cards{display:flex;flex-wrap:wrap;gap:1em;margin:1em 0}
.card{border:1px solid #ccc;border-radius:6px;padding:.6em 1em;min-width:9em}
.card b{display:block;font-size:1.4em} .card span{color:#666;font-size:.85em}
table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #ddd;padding:.25em .7em;text-align:right}
th:first-child,td:first-child{text-align:left}
#err{color:#b00}
</style></head><body>
<h1>afmm live <small id="upd"></small></h1>
<div class="cards">
<div class="card"><b id="steps">–</b><span>steps done</span></div>
<div class="card"><b id="rate">–</b><span>steps / s</span></div>
<div class="card"><b id="wall">–</b><span>last step wall</span></div>
<div class="card"><b id="sv">–</b><span>S</span></div>
<div class="card"><b id="anom">–</b><span>anomalies</span></div>
<div class="card"><b id="dumps">–</b><span>flight dumps</span></div>
</div>
<div id="err"></div>
<h1>last step phases</h1>
<table id="phases"><tr><th>phase</th><th>ms</th></tr></table>
<p><a href="/metrics">/metrics</a> · <a href="/status">/status</a> ·
<a href="/flightrec">/flightrec</a> · <a href="/debug/pprof/">/debug/pprof</a></p>
<script>
function ms(ns){return (ns/1e6).toFixed(2)}
async function tick(){
 try{
  const s=await (await fetch('/status')).json(); const t=s.telemetry||{};
  document.getElementById('steps').textContent=t.steps_done??'–';
  document.getElementById('rate').textContent=(t.steps_per_sec??0).toFixed(2);
  document.getElementById('wall').textContent=t.last_wall_ns?ms(t.last_wall_ns)+' ms':'–';
  document.getElementById('sv').textContent=t.last_step?t.last_step.s:'–';
  document.getElementById('anom').textContent=t.anomalies??0;
  document.getElementById('dumps').textContent=s.flight?s.flight.dumps:'–';
  const tbl=document.getElementById('phases');
  while(tbl.rows.length>1)tbl.deleteRow(1);
  const agg={};
  for(const sp of (t.last_step&&t.last_step.spans)||[]) agg[sp.k]=(agg[sp.k]||0)+sp.d;
  for(const k of Object.keys(agg).sort()){
   const r=tbl.insertRow(); r.insertCell().textContent=k; r.insertCell().textContent=ms(agg[k]);
  }
  document.getElementById('err').textContent='';
  document.getElementById('upd').textContent=new Date().toLocaleTimeString();
 }catch(e){document.getElementById('err').textContent='status fetch failed: '+e}
}
tick(); setInterval(tick,1000);
</script></body></html>
`
