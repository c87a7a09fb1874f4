package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

type benchFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Two builds of a run's requests from one seed are byte-identical and
// in the same order; another seed gives other requests.
func TestStreamsDeterministic(t *testing.T) {
	flat := func(st streams) [][]byte {
		var out [][]byte
		for _, part := range [][]job{st.warm, st.closed, st.low, st.high} {
			for _, j := range part {
				out = append(out, append([]byte(fmt.Sprintf("%d %s %d ", j.node, j.path, j.op)), j.body...))
			}
		}
		return out
	}
	for _, wl := range workloads {
		p := wl.tracedPlan(2)
		a, b, c := flat(wl.buildStreams(7, &p)), flat(wl.buildStreams(7, &p)), flat(wl.buildStreams(8, &p))
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests for one seed", wl.name, len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two builds of seed 7", wl.name, i)
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", wl.name)
		}
	}
}

// Every metric name is well formed and the lists equal BENCHMARK.json's.
func TestMetricNames(t *testing.T) {
	bf := loadBenchFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range got {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// No percentile is reported with fewer than 10 samples beyond it, and
// every open-loop phase plan gathers enough samples for its tail.
func TestPercentileTail(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		q  float64
		n  int
		ok bool
	}{{0.99, 999, false}, {0.99, 1000, true}, {0.5, 19, false}, {0.5, 20, true}} {
		v, ok := quantile(sorted(c.n), c.q)
		if ok != c.ok {
			t.Errorf("quantile(%d samples, %g): ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok && float64(c.n)-1-v < minTail-1 {
			t.Errorf("quantile(%d samples, %g) = %v leaves fewer than %d samples beyond", c.n, c.q, v, minTail)
		}
	}
	for _, wl := range workloads {
		p := wl.tracedPlan(1)
		for _, ph := range []struct {
			rate float64
			d    time.Duration
		}{{wl.lowRPS, p.untracedLow}, {wl.lowRPS, p.low}, {wl.highRPS, p.high}} {
			if n := int(ph.rate * ph.d.Seconds()); n < samplesFor(tailQ) {
				t.Errorf("%s: a %g/s phase of %v sends %d requests, too few for its tail", wl.name, ph.rate, ph.d, n)
			}
		}
	}
}

// The oracle flags a served answer corrupted after it was received.
func TestOracleFlagsCorruption(t *testing.T) {
	ss, err := startServe(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.close()
	for _, mode := range []string{"steady", "rc"} {
		req := specio.EvalRequest{Stack: smallStack(42)}
		if mode == "rc" {
			req.Fidelity = specio.FidelityRC
		}
		j := evalJob(req, mode)
		raw, err := ss.post(0, pathEval, j.body)
		if err != nil {
			t.Fatal(err)
		}
		var er specio.EvalResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if err := checkEval(mode, &er); err != nil {
			t.Fatalf("%s: served answer fails the response check: %v", mode, err)
		}
		if err := checkAnswer(ss, mode, oracleSample{j: &j, eval: er}); err != nil {
			t.Fatalf("%s: served answer fails the oracle: %v", mode, err)
		}
		bad := er
		// Twice the bound plus half a kelvin puts the peak outside its
		// bound whichever side of the truth the answer was on.
		shift := 2*float64(er.BoundK) + 0.5
		bad.PeakT += telemetry.Float(shift)
		if checkAnswer(ss, mode, oracleSample{j: &j, eval: bad}) == nil {
			t.Errorf("%s: oracle accepted a peak moved by %v K", mode, shift)
		}
		bad = er
		bad.PeakT = telemetry.Float(math.NaN())
		if checkEval(mode, &bad) == nil {
			t.Errorf("%s: response check accepted a NaN peak", mode)
		}
	}
	j := batchJob(streamRNG(1, "test"))
	raw, err := ss.post(0, pathBatch, j.body)
	if err != nil {
		t.Fatal(err)
	}
	var br specio.EvalBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(ss, "batch", oracleSample{j: &j, bat: br}); err != nil {
		t.Fatalf("batch answer fails the oracle: %v", err)
	}
	br.Items[1].PeakT += 0.01
	if checkAnswer(ss, "batch", oracleSample{j: &j, bat: br}) == nil {
		t.Error("oracle accepted a corrupted batch item")
	}
	if checkTrace([]byte("event: checkpoint\ndata: {\"segment\":1,\"segments\":2}\n\n")) == nil {
		t.Error("trace check accepted a stream without a done frame")
	}
	rg := regens[0]
	if checkHeadlines(rg, map[string]float64{rg.ref[0].name: rg.ref[0].value * 1.02, rg.ref[1].name: rg.ref[1].value}) == nil {
		t.Error("headline check accepted a value 2 % off its reference")
	}
}

// BENCHMARK.json records why each workload was chosen, and its why
// states the workload's fixed open-loop rates.
func TestWorkloadsRecorded(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		w := bf.Workloads[i]
		if w.Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, perfbench %q", i, w.Name, wl.name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of 1 to 200 characters", w.Name)
		}
		if rates := fmt.Sprintf("%g and %g/s", wl.lowRPS, wl.highRPS); !strings.Contains(w.Why, rates) {
			t.Errorf("%s: why does not state its rates %q", w.Name, rates)
		}
	}
}
