package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"constable/internal/cache"
	"constable/internal/inspector"
	"constable/internal/isa"
	"constable/internal/pipeline"
	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/worker"
	"constable/internal/workload"
)

// probeLayers runs after a traced run's timed phase. It calls each layer's
// public functions on their own, on inputs drawn from the workload's specs,
// and returns the per-layer metrics that spans cannot give: costs inside
// one call (the functional model, the cache hierarchy, constructors) and
// costs of layers the workload crosses too rarely to time in place.
func probeLayers(o options, specs []*workload.Spec) (map[string]float64, error) {
	out := map[string]float64{}
	spec := specs[0]
	n := o.scaled(200_000)

	var build time.Duration
	built := specs[:min(len(specs), 8)]
	for _, s := range built {
		t := time.Now()
		if _, err := s.Build(false); err != nil {
			return nil, err
		}
		build += time.Since(t)
	}
	out["workload.build_ms"] = ms(build) / float64(len(built))

	// The functional model alone, then the Load Inspector and the cache
	// hierarchy over the instructions it produced.
	st, err := spec.NewStream(false, uint64(n))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	streamed := 0
	for ; ; streamed++ {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	out["fsim.ns_per_inst"] = float64(time.Since(t)) / float64(streamed)
	insts, err := collect(spec, min(n, 100_000))
	if err != nil {
		return nil, err
	}
	ins := inspector.New()
	t = time.Now()
	for i := range insts {
		ins.Observe(&insts[i])
	}
	out["inspector.ns_per_inst"] = float64(time.Since(t)) / float64(len(insts))
	hier := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	accesses := 0
	t = time.Now()
	for i := range insts {
		switch d := &insts[i]; {
		case d.IsLoad():
			hier.Load(d.PC, d.Addr)
			accesses++
		case d.IsStore():
			hier.Store(d.Addr)
			accesses++
		}
	}
	out["cache.ns_per_access"] = float64(time.Since(t)) / float64(max(accesses, 1))

	const news = 10
	var newHier, newCore time.Duration
	var hierBytes, coreBytes, coreAllocs uint64
	for range news {
		a0 := readMem()
		t := time.Now()
		h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
		newHier += time.Since(t)
		a1 := readMem()
		hierBytes += a1.TotalAlloc - a0.TotalAlloc

		st, err := spec.NewStream(false, uint64(n))
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Threads = 1
		a0 = readMem()
		t = time.Now()
		core := pipeline.NewCore(cfg, pipeline.Attachments{}, h, st)
		newCore += time.Since(t)
		a1 = readMem()
		coreBytes += a1.TotalAlloc - a0.TotalAlloc
		coreAllocs += a1.Mallocs - a0.Mallocs
		runtime.KeepAlive(core)
	}
	out["cache.new_us"] = float64(newHier) / 1e3 / news
	out["cache.new_kb"] = float64(hierBytes) / 1024 / news
	out["pipeline.new_us"] = float64(newCore) / 1e3 / news
	out["pipeline.new_kb"] = float64(coreBytes) / 1024 / news
	out["pipeline.new_allocs"] = float64(coreAllocs) / news

	// Whole runs, baseline and Constable alternating; medians of three.
	var base, cons []float64
	var res *sim.RunResult
	for range 3 {
		for _, m := range []sim.Mechanism{{}, {Constable: true}} {
			t := time.Now()
			r, err := sim.Run(sim.Options{Workload: spec, Instructions: uint64(n), Mech: m})
			if err != nil {
				return nil, err
			}
			if m.Constable {
				cons = append(cons, float64(time.Since(t)))
			} else {
				base = append(base, float64(time.Since(t)))
				res = r
			}
		}
	}
	baseNS := median(base)
	out["pipeline.ns_per_cycle"] = baseNS / float64(res.Cycles)
	setupNS := float64(newHier+newCore)/news + float64(build)/float64(len(built))
	others := out["fsim.ns_per_inst"]*float64(n) + out["cache.ns_per_access"]*float64(res.L1DAccesses) + setupNS
	out["pipeline.self_ns_per_inst"] = (baseNS - others) / float64(n)
	out["constable.overhead_pct"] = 100 * (median(cons)/baseNS - 1)

	const runs = 5
	a0 := readMem()
	for range runs {
		if _, err := sim.Run(sim.Options{Workload: spec, Instructions: 4000}); err != nil {
			return nil, err
		}
	}
	a1 := readMem()
	out["sim.kb_per_run"] = float64(a1.TotalAlloc-a0.TotalAlloc) / 1024 / runs
	out["sim.allocs_per_run"] = float64(a1.Mallocs-a0.Mallocs) / runs

	// The result's serialized forms.
	hash, err := service.SpecFromOptions(sim.Options{Workload: spec, Instructions: uint64(n)}).Hash()
	if err != nil {
		return nil, err
	}
	const codec = 20
	var enc []byte
	t = time.Now()
	for range codec {
		if enc, err = json.Marshal(sim.NewResultEnvelope(hash, res)); err != nil {
			return nil, err
		}
	}
	out["sim.envelope_encode_us"] = float64(time.Since(t)) / 1e3 / codec
	out["sim.envelope_bytes"] = float64(len(enc))
	t = time.Now()
	for range codec {
		var env sim.ResultEnvelope
		if err := json.Unmarshal(enc, &env); err != nil {
			return nil, err
		}
		if _, err := env.Open(hash); err != nil {
			return nil, err
		}
	}
	out["sim.envelope_decode_us"] = float64(time.Since(t)) / 1e3 / codec
	t = time.Now()
	for range codec {
		runtime.KeepAlive(res.Clone())
	}
	out["sim.result_clone_us"] = float64(time.Since(t)) / 1e3 / codec

	cells := make([]service.JobSpec, 0, 8)
	for i := range 8 {
		cells = append(cells, service.JobSpec{Workload: specs[i%len(specs)].Name, Mechanism: "constable",
			Instructions: uint64(4000 + i)})
	}
	t = time.Now()
	for _, c := range cells {
		if _, err := c.Hash(); err != nil {
			return nil, err
		}
	}
	out["service.hash_us"] = float64(time.Since(t)) / 1e3 / float64(len(cells))

	if err := probeService(o, out); err != nil {
		return nil, err
	}
	if err := probeTransport(cells, out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeService times opening a scheduler over an empty result store.
func probeService(o options, out map[string]float64) error {
	dir, err := os.MkdirTemp(o.work, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const opens = 5
	var opened time.Duration
	for range opens {
		t := time.Now()
		s, err := service.Open(service.Config{Workers: 2, DataDir: dir})
		if err != nil {
			return err
		}
		opened += time.Since(t)
		s.Close()
	}
	out["service.open_ms"] = ms(opened) / opens
	return nil
}

// probeTransport times the HTTP layers on answers the service already has,
// so no simulation hides them: a POST /v1/runs?wait=1 round trip served
// from the server's cache, and a worker's /execute/batch per cell served
// from the worker's cache.
func probeTransport(cells []service.JobSpec, out map[string]float64) error {
	s, err := service.Open(service.Config{Workers: 2})
	if err != nil {
		return err
	}
	defer s.Close()
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()
	body, err := json.Marshal(cells[0])
	if err != nil {
		return err
	}
	const trips = 30
	var elapsed time.Duration
	for i := range trips + 1 {
		t := time.Now()
		if err := post(srv.Client(), srv.URL+"/v1/runs?wait=1", body, nil); err != nil {
			return err
		}
		if i > 0 { // the first call simulates
			elapsed += time.Since(t)
		}
	}
	out["http.roundtrip_us"] = float64(elapsed) / 1e3 / trips

	w, err := worker.New(worker.Options{Server: "http://127.0.0.1:9", ResultsServer: "none", Capacity: 2})
	if err != nil {
		return err
	}
	defer w.Close()
	ws := httptest.NewServer(w.Handler())
	defer ws.Close()
	var req service.BatchExecuteRequest
	for _, c := range cells {
		h, err := c.Hash()
		if err != nil {
			return err
		}
		req.Items = append(req.Items, service.ExecuteRequest{Hash: h, Spec: c})
	}
	if body, err = json.Marshal(req); err != nil {
		return err
	}
	const batches = 10
	elapsed = 0
	for i := range batches + 1 {
		var resp service.BatchExecuteResponse
		t := time.Now()
		if err := post(ws.Client(), ws.URL+"/execute/batch", body, &resp); err != nil {
			return err
		}
		if i > 0 {
			elapsed += time.Since(t)
		}
		for _, it := range resp.Items {
			if it.Envelope == nil {
				return fmt.Errorf("probe: worker batch item failed: %s", it.Error)
			}
		}
	}
	out["worker.batch_us_per_cell"] = float64(elapsed) / 1e3 / batches / float64(len(cells))
	return nil
}

// post sends body as JSON and decodes a 200 answer into v (nil discards it).
func post(c *http.Client, url string, body []byte, v any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// collect returns the first n instructions the workload's functional model
// produces.
func collect(spec *workload.Spec, n int) ([]isa.DynInst, error) {
	st, err := spec.NewStream(false, uint64(n))
	if err != nil {
		return nil, err
	}
	out := make([]isa.DynInst, 0, n)
	for {
		d, ok := st.Next()
		if !ok {
			return out, st.Err()
		}
		out = append(out, d)
	}
}
