package main

// The served system: thermserve's handler (serve.New) at its flag
// defaults, on real loopback listeners, optionally as a cluster of
// nodes joined by cluster.New. Requests go over HTTP from one client
// whose transport opens at most nproc connections per node.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"thermalscaffold/internal/cluster"
	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// node is one in-process server on a loopback listener.
type node struct {
	srv *serve.Server
	hs  *http.Server
	clu *cluster.Cluster
	url string
}

// servedInfo is what the traced run keeps about one answered request.
type servedInfo struct {
	latency time.Duration // from dispatch to the last byte
	cached  bool
}

// oracleSample is one served answer kept for the correctness oracle.
type oracleSample struct {
	j    *job
	eval specio.EvalResponse      // eval requests
	bat  specio.EvalBatchResponse // batch requests
}

// oracleSampleSize is how many distinct answers of each mode the
// oracle re-checks per run.
const oracleSampleSize = 12

type serveSys struct {
	nodes  []*node
	client *http.Client
	tel    *telemetry.Collector // non-nil only in the traced run

	mu      sync.Mutex
	answers map[string]uint64 // key → peak_t_k bits of its first answer
	changed map[string]bool   // keys whose peak_t_k bits changed
	samples map[string][]oracleSample
	sampled map[string]bool
	track   map[*job]servedInfo // traced run only
}

// serveConfig is thermserve's flag defaults: -workers 1, -queue 64,
// -cache 256, -timeout 30s, everything else zero.
func serveConfig(tel *telemetry.Collector) serve.Config {
	return serve.Config{
		SolverWorkers:  1,
		QueueDepth:     64,
		CacheSize:      256,
		DefaultTimeout: 30 * time.Second,
		Telemetry:      tel,
	}
}

// startServe starts n nodes; with n > 1 they form one cluster at
// cluster.New's defaults.
func startServe(n int, tel *telemetry.Collector) (*serveSys, error) {
	lns := make([]net.Listener, n)
	specs := make([]cluster.NodeSpec, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		specs[i] = cluster.NodeSpec{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()}
	}
	s := &serveSys{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     runtime.NumCPU(),
				MaxIdleConnsPerHost: runtime.NumCPU(),
				DisableCompression:  true,
			},
		},
		tel:     tel,
		answers: map[string]uint64{},
		changed: map[string]bool{},
		samples: map[string][]oracleSample{},
		sampled: map[string]bool{},
	}
	for i, ln := range lns {
		cfg := serveConfig(tel)
		nd := &node{url: specs[i].URL}
		if n > 1 {
			clu, err := cluster.New(cluster.Config{Self: specs[i].ID, Nodes: specs, Telemetry: tel})
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				s.close()
				return nil, err
			}
			nd.clu = clu
			cfg.Peers = clu
		}
		nd.srv = serve.New(cfg)
		nd.hs = &http.Server{Handler: nd.srv}
		go nd.hs.Serve(ln)
		s.nodes = append(s.nodes, nd)
	}
	return s, nil
}

// close drains every node and waits for it to stop.
func (s *serveSys) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range s.nodes {
		nd.srv.Shutdown(ctx)
		nd.hs.Shutdown(ctx)
		if nd.clu != nil {
			nd.clu.Close()
		}
	}
	s.client.CloseIdleConnections()
}

// post sends one request body and returns the response body of a 200.
func (s *serveSys) post(nodeIdx int, path string, body []byte) ([]byte, error) {
	res, err := s.client.Post(s.nodes[nodeIdx].url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, res.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (s *serveSys) do(j *job) bool {
	start := time.Now()
	raw, err := s.post(j.node, j.path, j.body)
	if err != nil {
		return false
	}
	info := servedInfo{}
	switch j.path {
	case pathEval:
		var er specio.EvalResponse
		if json.Unmarshal(raw, &er) != nil || checkEval(j.mode, &er) != nil {
			return false
		}
		info.cached = er.Cached
		s.record(j, er.Key, float64(er.PeakT), oracleSample{j: j, eval: er})
	case pathBatch:
		var br specio.EvalBatchResponse
		if json.Unmarshal(raw, &br) != nil || checkBatch(j, &br) != nil {
			return false
		}
		info.cached = true
		for i := range br.Items {
			info.cached = info.cached && br.Items[i].Cached
			s.record(j, br.Items[i].Key, float64(br.Items[i].PeakT), oracleSample{})
		}
		s.keepSample(j, br.Items[0].Key, oracleSample{j: j, bat: br})
	case pathTrace:
		if checkTrace(raw) != nil {
			return false
		}
	}
	if s.track != nil {
		info.latency = time.Since(start)
		s.mu.Lock()
		s.track[j] = info
		s.mu.Unlock()
	}
	return true
}

// record notes a key's answer (for serve.key_answer_changes) and keeps
// eval answers for the oracle.
func (s *serveSys) record(j *job, key string, peak float64, smp oracleSample) {
	bits := math.Float64bits(peak)
	s.mu.Lock()
	if prev, ok := s.answers[key]; !ok {
		s.answers[key] = bits
	} else if prev != bits {
		s.changed[key] = true
	}
	s.mu.Unlock()
	if smp.j != nil {
		s.keepSample(j, key, smp)
	}
}

func (s *serveSys) keepSample(j *job, key string, smp oracleSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampled[key] || len(s.samples[j.mode]) >= oracleSampleSize {
		return
	}
	s.sampled[key] = true
	s.samples[j.mode] = append(s.samples[j.mode], smp)
}

// checkEval is the per-response check every eval answer must pass.
func checkEval(mode string, er *specio.EvalResponse) error {
	peak, mean := float64(er.PeakT), float64(er.MeanT)
	switch {
	case er.Error != "":
		return fmt.Errorf("error %q", er.Error)
	case len(er.Key) != 64:
		return fmt.Errorf("key %q is not a 64-hex address", er.Key)
	case er.Mode != "steady":
		return fmt.Errorf("mode %q, want steady", er.Mode)
	case !(peak > 250 && peak < 2000):
		return fmt.Errorf("peak %v K outside (250, 2000)", peak)
	case !(mean > 250 && mean <= peak):
		return fmt.Errorf("mean %v K outside (250, peak]", mean)
	case len(er.Tiers) == 0:
		return fmt.Errorf("no tier profile")
	}
	if mode == "rc" {
		if er.Fidelity != specio.FidelityRC || !(float64(er.BoundK) >= 0) {
			return fmt.Errorf("rc answer with fidelity %q bound %v", er.Fidelity, er.BoundK)
		}
		return nil
	}
	if er.Fidelity != "" || !(float64(er.Residual) <= 1e-6) {
		return fmt.Errorf("full answer with fidelity %q residual %v", er.Fidelity, er.Residual)
	}
	return nil
}

func checkBatch(j *job, br *specio.EvalBatchResponse) error {
	req, err := specio.ParseEvalBatch(j.body)
	if err != nil {
		return err
	}
	if br.Error != "" || len(br.Items) != len(req.Items) {
		return fmt.Errorf("batch answered %d of %d items (%q)", len(br.Items), len(req.Items), br.Error)
	}
	for i := range br.Items {
		if err := checkEval("steady", &br.Items[i]); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// checkTrace reads an SSE stream: every segment must checkpoint and
// the stream must end in a done frame with a physical peak.
func checkTrace(raw []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event, checkpoints := "", 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev specio.TraceEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return err
			}
			switch event {
			case specio.TraceEventCheckpoint:
				checkpoints++
			case specio.TraceEventDone:
				if ev.Segment != ev.Segments || checkpoints != ev.Segments || !(float64(ev.PeakT) > 250 && float64(ev.PeakT) < 2000) {
					return fmt.Errorf("bad done frame %+v after %d checkpoints", ev, checkpoints)
				}
				return nil
			default:
				return fmt.Errorf("stream event %q: %s", event, ev.Error)
			}
		}
	}
	return fmt.Errorf("stream ended without a done frame")
}

// metrics reads /metrics of every node and sums the counters.
func (s *serveSys) metrics() (map[string]int64, int64, error) {
	sum := map[string]int64{}
	var qd int64
	for i := range s.nodes {
		res, err := s.client.Get(s.nodes[i].url + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		var snap serve.MetricsSnapshot
		err = json.NewDecoder(res.Body).Decode(&snap)
		res.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("metrics: %w", err)
		}
		for k, v := range snap.Counters {
			sum[k] += v
		}
		qd += snap.QueueDepth
	}
	return sum, qd, nil
}

// keyAnswerChanges counts keys whose peak_t_k bits changed in the run.
func (s *serveSys) keyAnswerChanges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.changed)
}
