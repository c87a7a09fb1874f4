package main

// Tracing for the traced run: spans recorded from this benchmark's
// own code around each call into a layer, kept in memory and written
// to a file when the run ends, plus the layer replay that drives
// generated requests through the public functions the server calls.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"thermalscaffold/internal/rom"
	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// span is one timed call. Times are nanoseconds since the run began;
// Parent is 0 for a root span; spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return time.Duration(now - r.spans[id-1].Start)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, req int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// layerTime is the per-name total and self time of the spans.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes each span name's total and self time: a span's
// self time is its duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = lt
	}
	return out
}

// write stores the spans and their per-layer self times in path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Layers map[string]layerTime `json:"layers"`
		Spans  []span               `json:"spans"`
	}{selfTimes(r.spans), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// durations returns the durations of the spans named name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// replayOptions are the solver options the server would use for ev.
func replayOptions(ev *specio.Eval) solver.Options {
	return solver.Options{Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond, Precision: ev.Precision, Workers: 1}
}

// replay drives one generated request through the layers' public
// functions in the order the server calls them, one span per call. It
// returns, per span name, the time spent (for attributing served
// latency).
func replay(rec *recorder, req int, j *job) (map[string]time.Duration, error) {
	spent := map[string]time.Duration{}
	root := rec.begin("replay.request", 0, req)
	defer rec.end(root)
	call := func(name string, f func() error) error {
		id := rec.begin(name, root, req)
		err := f()
		spent[name] += rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	switch j.path {
	case pathTrace:
		var tr specio.TraceRequest
		var te *specio.TraceEval
		if err := call("specio.parse", func() (err error) { tr, err = specio.ParseTrace(j.body); return }); err != nil {
			return nil, err
		}
		if err := call("specio.build", func() (err error) { te, err = specio.BuildTrace(tr); return }); err != nil {
			return nil, err
		}
		err := call("solver.trace", func() error {
			_, err := solver.SolveTrace(te.Base.Problem, te.Base.InitialField(), te.Segments, replayOptions(te.Base), solver.TraceOptions{})
			return err
		})
		return spent, err
	case pathBatch:
		var br specio.EvalBatchRequest
		var items []specio.EvalRequest
		if err := call("specio.parse", func() (err error) {
			if br, err = specio.ParseEvalBatch(j.body); err == nil {
				items, err = br.Expand()
			}
			return
		}); err != nil {
			return nil, err
		}
		var resp specio.EvalBatchResponse
		for _, item := range items {
			er, err := replayEval(call, item, "steady")
			if err != nil {
				return nil, err
			}
			resp.Items = append(resp.Items, er)
		}
		return spent, call("specio.encode", func() error { _, err := json.MarshalIndent(resp, "", "  "); return err })
	default:
		var er specio.EvalRequest
		if err := call("specio.parse", func() (err error) { er, err = specio.ParseEval(j.body); return }); err != nil {
			return nil, err
		}
		resp, err := replayEval(call, er, j.mode)
		if err != nil {
			return nil, err
		}
		return spent, call("specio.encode", func() error { _, err := json.MarshalIndent(resp, "", "  "); return err })
	}
}

// replayEval runs normalize → build → keys → solve for one request.
func replayEval(call func(string, func() error) error, req specio.EvalRequest, mode string) (specio.EvalResponse, error) {
	var norm specio.EvalRequest
	var ev *specio.Eval
	var resp specio.EvalResponse
	if err := call("specio.normalize", func() (err error) { norm, err = req.Normalize(); return }); err != nil {
		return resp, err
	}
	if err := call("specio.build", func() (err error) { ev, err = specio.BuildEval(norm); return }); err != nil {
		return resp, err
	}
	if err := call("serve.keys", func() (err error) { resp.Key, _, err = serve.Keys(ev); return }); err != nil {
		return resp, err
	}
	var field []float64
	if mode == "rc" {
		var m *rom.Model
		bands := make([]int, len(ev.Layout.TierOfLayer))
		for k, t := range ev.Layout.TierOfLayer {
			bands[k] = t + 1
		}
		if err := call("rom.reduce", func() (err error) { m, err = rom.Reduce(ev.Problem, rom.Options{ZBandOf: bands}); return }); err != nil {
			return resp, err
		}
		if err := call("rom.eval", func() error {
			r, err := m.Eval(ev.Problem.Q)
			if err == nil {
				field = r.T()
				resp.BoundK = telemetry.Float(r.Bound)
			}
			return err
		}); err != nil {
			return resp, err
		}
	} else if err := call("solver.cold_solve", func() error {
		r, err := solver.SolveSteady(ev.Problem, replayOptions(ev))
		if err == nil {
			field = r.T
			resp.Iterations, resp.Residual = r.Iterations, telemetry.Float(r.Residual)
		}
		return err
	}); err != nil {
		return resp, err
	}
	peak, mean := ev.FieldStats(field)
	resp.Mode, resp.PeakT, resp.MeanT, resp.Tiers = ev.Mode(), telemetry.Float(peak), telemetry.Float(mean), ev.TierProfile(field)
	return resp, nil
}
