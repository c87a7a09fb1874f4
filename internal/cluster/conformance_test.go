package cluster

// Cluster conformance: the hard contract of DESIGN.md §14. Any
// response served through any node of a 2- or 4-node ring must be
// byte-identical (after zeroing wall-clock fields) to what a
// single-node server answers for the same request — cold solves,
// peer-fetched cache hits, batch items, and trace streams alike, and
// whatever SolverWorkers each node runs. Run under -race -count=2 by
// `make equivalence`.

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/specio"
)

func TestClusterConformance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		workers []int
	}{
		{"nodes=2", 2, nil},
		{"nodes=4", 4, nil},
		// Nodes at different -workers still answer one key with one
		// set of bytes: the worker count never changes a computed bit.
		{"nodes=2-mixed-workers", 2, []int{1, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.nodes
			ring := startRing(t, n, ringOpts{workers: tc.workers})
			single := startSingle(t, ringOpts{})
			corpus := conformanceCorpus(t)

			// Pass 1 — cold: request k lands on node k%n; both sides
			// solve fresh, byte-for-byte the same answer.
			for k, raw := range corpus {
				gotCode, got := ring.post(t, k%n, "/v1/eval", raw)
				wantCode, want := single.post(t, "/v1/eval", raw)
				if gotCode != wantCode {
					t.Fatalf("cold req %d: HTTP %d via cluster vs %d single-node: %s", k, gotCode, wantCode, got)
				}
				if g, w := string(zeroWall(got)), string(zeroWall(want)); g != w {
					t.Fatalf("cold req %d not bitwise identical\n--- cluster ---\n%s\n--- single ---\n%s", k, g, w)
				}
			}

			// Barrier: every fill has reached its ring owner.
			ring.sync()

			// Pass 2 — warm: request k lands on a different node than
			// pass 1. The answer now comes from the local store (if this
			// node is the key's owner) or a peer fetch — either way it
			// must match the single-node cache hit bit for bit,
			// cached flag included.
			for k, raw := range corpus {
				gotCode, got := ring.post(t, (k+1)%n, "/v1/eval", raw)
				wantCode, want := single.post(t, "/v1/eval", raw)
				if gotCode != wantCode {
					t.Fatalf("warm req %d: HTTP %d via cluster vs %d single-node: %s", k, gotCode, wantCode, got)
				}
				if g, w := string(zeroWall(got)), string(zeroWall(want)); g != w {
					t.Fatalf("warm req %d not bitwise identical\n--- cluster ---\n%s\n--- single ---\n%s", k, g, w)
				}
				var resp specio.EvalResponse
				if err := json.Unmarshal(got, &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Cached {
					t.Fatalf("warm req %d: cluster answer not served from cache", k)
				}
			}

			// The warm pass must actually have exercised the peer path
			// somewhere on the ring (not every request — a key's owner
			// serves its own local hit — but across the corpus, yes).
			var peerHits int64
			for _, node := range ring.nodes {
				peerHits += node.clu.Stats()["peer_hits"]
			}
			if peerHits == 0 {
				t.Fatal("warm pass never hit the peer cache — the ring routed nothing")
			}
		})
	}
}

// TestClusterWindowConformance: a ring whose nodes micro-batch cold
// misses (-batch-window on) answers bitwise identically to a plain
// single-node server with the window off — the window must be
// invisible in the response bytes even when a storm of same-family
// requests is flushed as one batched solve, and warm peer-fetched
// hits afterwards still match.
func TestClusterWindowConformance(t *testing.T) {
	ring := startRing(t, 2, ringOpts{batchWindow: 10 * time.Millisecond, maxBatch: 8})
	single := startSingle(t, ringOpts{})

	// One family, distinct powers: every request is a cold miss
	// eligible for the window.
	var corpus [][]byte
	for _, p := range []float64{11, 17, 23, 29, 41, 47} {
		raw, err := specio.MarshalEval(steadyReq(p))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, raw)
	}

	// Cold storm: all requests in flight at once, split across both
	// nodes, so each node's window gathers siblings and flushes a
	// batched solve.
	type res struct {
		code int
		body []byte
	}
	got := make([]res, len(corpus))
	var wg sync.WaitGroup
	for k, raw := range corpus {
		wg.Add(1)
		go func(k int, raw []byte) {
			defer wg.Done()
			code, body := ring.post(t, k%2, "/v1/eval", raw)
			got[k] = res{code, body}
		}(k, raw)
	}
	wg.Wait()
	for k, raw := range corpus {
		wantCode, want := single.post(t, "/v1/eval", raw)
		if got[k].code != wantCode || wantCode != 200 {
			t.Fatalf("cold req %d: HTTP %d via windowed ring vs %d single-node: %s", k, got[k].code, wantCode, got[k].body)
		}
		if g, w := string(zeroWall(got[k].body)), string(zeroWall(want)); g != w {
			t.Fatalf("windowed cold req %d not bitwise identical\n--- ring ---\n%s\n--- single ---\n%s", k, g, w)
		}
	}

	ring.sync()

	// Warm pass on the opposite node: peer-fetched hits of windowed
	// solves still match the single-node cache hit bytes.
	for k, raw := range corpus {
		gotCode, gotBody := ring.post(t, (k+1)%2, "/v1/eval", raw)
		wantCode, want := single.post(t, "/v1/eval", raw)
		if gotCode != wantCode {
			t.Fatalf("warm req %d: HTTP %d via ring vs %d single-node", k, gotCode, wantCode)
		}
		if g, w := string(zeroWall(gotBody)), string(zeroWall(want)); g != w {
			t.Fatalf("warm req %d not bitwise identical\n--- ring ---\n%s\n--- single ---\n%s", k, g, w)
		}
		var resp specio.EvalResponse
		if err := json.Unmarshal(gotBody, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("warm req %d: not served from cache", k)
		}
	}
}

// TestClusterBatchConformance replays one batch through every node of
// a 4-node ring: cold and warm batch responses (per-item cache and
// coalescing flags included) must match the single-node bytes.
func TestClusterBatchConformance(t *testing.T) {
	opts := ringOpts{}
	ring := startRing(t, 4, opts)
	single := startSingle(t, opts)

	breq := specio.EvalBatchRequest{
		Base: steadyReq(12),
		Items: []specio.BatchItem{
			{}, // the base scenario itself
			{PowerBlocks: []specio.PowerBlock{{X0: 1, Y0: 1, X1: 5, Y1: 5, DensityWPerCm2: 30}}},
			{PowerBlocks: []specio.PowerBlock{{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: 45}}},
			{}, // duplicate of item 0: must coalesce identically
		},
	}
	raw, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}

	// Cold batch on node 0, warm batches on every other node.
	for i := 0; i < len(ring.nodes); i++ {
		gotCode, got := ring.post(t, i, "/v1/evalbatch", raw)
		wantCode, want := single.post(t, "/v1/evalbatch", raw)
		if gotCode != wantCode || gotCode != 200 {
			t.Fatalf("node %d: HTTP %d via cluster vs %d single-node: %s", i, gotCode, wantCode, got)
		}
		if g, w := string(zeroWall(got)), string(zeroWall(want)); g != w {
			t.Fatalf("batch via node %d not bitwise identical\n--- cluster ---\n%s\n--- single ---\n%s", i, g, w)
		}
		ring.sync() // fills from this pass land before the next node asks
	}
}

// TestClusterTraceConformance streams one trace through a ring node:
// traces bypass the cache and the cluster entirely, and the SSE bytes
// must say so by matching the single-node stream exactly.
func TestClusterTraceConformance(t *testing.T) {
	opts := ringOpts{}
	ring := startRing(t, 2, opts)
	single := startSingle(t, opts)

	one, idle := 1.0, 0.2
	treq := specio.TraceRequest{
		Stack: clusterStack(18),
		Segments: []specio.TraceSegmentJSON{
			{DtS: 1e-4, Steps: 4, PowerScale: &one},
			{DtS: 1e-4, Steps: 4, PowerScale: &idle},
		},
	}
	raw, err := json.Marshal(treq)
	if err != nil {
		t.Fatal(err)
	}
	gotCode, got := ring.post(t, 1, "/v1/evaltrace", raw)
	wantCode, want := single.post(t, "/v1/evaltrace", raw)
	if gotCode != wantCode || gotCode != 200 {
		t.Fatalf("HTTP %d via cluster vs %d single-node: %s", gotCode, wantCode, got)
	}
	if g, w := string(zeroWall(got)), string(zeroWall(want)); g != w {
		t.Fatalf("trace stream not bitwise identical\n--- cluster ---\n%s\n--- single ---\n%s", g, w)
	}
}
