package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
)

// bareStore is a storage.Manager with none of the optional interfaces.
type bareStore struct{ storage.Manager }

// TestWrapStoreForwardsOptionalInterfaces: the traced store must
// implement exactly the optional interfaces of the store it wraps, or
// the traced run would silently lose MVCC snapshots or provenance.
func TestWrapStoreForwardsOptionalInterfaces(t *testing.T) {
	es, err := eos.Open(filepath.Join(t.TempDir(), "s.eos"), eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	ds := dali.New()
	for name, m := range map[string]storage.Manager{"eos": es, "dali": ds, "bare": bareStore{ds}} {
		w := wrapStore(m, newTracer())
		_, rawV := m.(storage.Versioned)
		_, wrapV := w.(storage.Versioned)
		_, rawC := m.(commitCauser)
		_, wrapC := w.(commitCauser)
		if rawV != wrapV || rawC != wrapC {
			t.Errorf("%s: Versioned %v→%v, commitCauser %v→%v", name, rawV, wrapV, rawC, wrapC)
		}
	}
	var sm storage.Manager = es
	if _, ok := sm.(storage.Versioned); !ok {
		t.Fatal("eos no longer implements storage.Versioned; the test covers nothing")
	}
	if _, ok := sm.(commitCauser); !ok {
		t.Fatal("eos no longer implements commitCauser; the test covers nothing")
	}
}

// indexBucket mirrors obj's trigger-index bucket so its gob image can
// be decoded here.
type indexBucket struct{ Entries map[uint64][]uint64 }

// digest hashes every live object of a store in OID order. Trigger-index
// buckets are gob-encoded maps, whose bytes follow Go's random map
// iteration order, so a bucket is hashed as its entries in key order.
func digest(t *testing.T, m storage.Manager) [32]byte {
	t.Helper()
	type kv struct {
		oid  storage.OID
		data []byte
	}
	var all []kv
	if err := m.Iterate(func(oid storage.OID, b []byte) error {
		all = append(all, kv{oid, append([]byte(nil), b...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].oid < all[j].oid })
	h := sha256.New()
	for _, e := range all {
		binary.Write(h, binary.LittleEndian, uint64(e.oid))
		if !isBucket(e.oid) {
			binary.Write(h, binary.LittleEndian, uint64(len(e.data)))
			h.Write(e.data)
			continue
		}
		var bk indexBucket
		if err := gob.NewDecoder(bytes.NewReader(e.data)).Decode(&bk); err != nil {
			t.Fatalf("bucket %d: %v", e.oid, err)
		}
		keys := make([]uint64, 0, len(bk.Entries))
		for k := range bk.Entries {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			binary.Write(h, binary.LittleEndian, k)
			binary.Write(h, binary.LittleEndian, bk.Entries[k])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// armedRun sets armed-scale up at a small scale, applies perturb to the
// fresh model, and runs the two clients one after the other for ops
// transactions each, which makes the final store a function of the seed
// alone. It returns the violations the clients saw.
func armedRun(t *testing.T, traced bool, ops int, perturb func(*model)) (*armed, []string) {
	t.Helper()
	a := &armed{maxOps: ops}
	cfg := &config{seed: 7, dir: t.TempDir(), trace: traced, scale: 0.02}
	tr := newTracer()
	if err := a.setup(cfg, tr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.close)
	if perturb != nil {
		perturb(a.m)
	}
	tr.on.Store(traced)
	far := time.Now().Add(time.Hour)
	var problems []string
	for c := 0; c < armedClients; c++ {
		tl := newTally(time.Now())
		a.client(c, far, traced, tl)
		if tl.failed > 0 {
			t.Fatalf("client %d: %d failed", c, tl.failed)
		}
		problems = append(problems, tl.problems...)
	}
	return a, problems
}

// TestTracedRunSameStoreDigest: with the storage and WAL decorators on
// and the layer probes running, the same seed must leave the same
// store, byte for byte apart from bucket map order.
func TestTracedRunSameStoreDigest(t *testing.T) {
	plain, p1 := armedRun(t, false, 400, nil)
	traced, p2 := armedRun(t, true, 400, nil)
	if len(p1)+len(p2) > 0 {
		t.Fatalf("violations: %v %v", p1, p2)
	}
	if _, ok := traced.db.Store().(*tracedStore); ok {
		t.Fatal("traced store lost its optional interfaces")
	}
	if _, ok := traced.db.Store().(storage.Versioned); !ok {
		t.Fatal("traced run is not over a versioned store")
	}
	if traced.tr.indexReadBytes.Load() == 0 || traced.tr.walWriteBytes.Load() == 0 {
		t.Fatal("decorators recorded nothing")
	}
	if digest(t, plain.db.Store()) != digest(t, traced.db.Store()) {
		t.Fatal("traced and untraced runs ended in different stores")
	}
}

// wantProblem asserts that err reports a violation containing sub.
func wantProblem(t *testing.T, what string, err error, sub string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), sub) {
		t.Errorf("%s: got %v, want a violation mentioning %q", what, err, sub)
	}
}

// TestArmedChecksCatchPerturbedModel: each armed-scale check passes on
// the engine's real output and fails once its model is perturbed.
func TestArmedChecksCatchPerturbedModel(t *testing.T) {
	a, ps := armedRun(t, false, 600, nil)
	if len(ps) > 0 {
		t.Fatalf("unperturbed: %v", ps)
	}
	if err := a.verify(); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	a.m.bal[2]++
	wantProblem(t, "balance", a.verify(), "balance")
	a.m.bal[2]--
	a.m.trig[3]++
	wantProblem(t, "armed trigger", a.verify(), "active triggers")
	a.m.trig[3]--

	_, ps = armedRun(t, false, 300, func(m *model) { m.limit = 50 })
	wantProblem(t, "in-limit Buy counted over-limit", joinProblems(ps), "over-limit Buy")
	_, ps = armedRun(t, false, 300, func(m *model) { m.limit = 2 * overAmount })
	wantProblem(t, "over-limit Buy counted in-limit", joinProblems(ps), "in-limit Buy")
	_, ps = armedRun(t, false, 300, func(m *model) {
		for i := range m.maxRead {
			m.maxRead[i] = 1e15
		}
	})
	wantProblem(t, "snapshot read went backwards", joinProblems(ps), "snapshot read")
}

// TestWireChecksCatchPerturbedModel: wire-mix's final balances and its
// snapshot reads are checked against the model.
func TestWireChecksCatchPerturbedModel(t *testing.T) {
	w := &wireMix{}
	if err := w.setup(&config{seed: 3, dir: t.TempDir(), scale: 0.05}, newTracer()); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tl, err := w.run(500*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed > 0 || len(tl.problems) > 0 {
		t.Fatalf("run: %d attempted, %d failed, %v", tl.attempted, tl.failed, tl.problems)
	}
	if err := w.verify(); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	w.m.bal[0]++
	wantProblem(t, "balance", w.verify(), "balance")
	w.m.bal[0]--

	for i := range w.m.maxRead {
		w.m.maxRead[i] = 1e15
	}
	tl, err = w.run(300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	wantProblem(t, "snapshot read went backwards", joinProblems(tl.problems), "snapshot read")
}

// TestFleetChecksCatchPerturbedModel: the exactly-once check names a
// source whose committed Kicks disagree with its firings, and the drain
// check fails while an outbox still holds events.
func TestFleetChecksCatchPerturbedModel(t *testing.T) {
	f := &fleet{drainWait: 300 * time.Millisecond}
	if err := f.setup(&config{seed: 5, dir: t.TempDir(), scale: 0.1}, newTracer()); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if _, err := f.run(500*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	src := f.sources[0]
	f.kicks[0][0] += 3
	wantProblem(t, "exactly-once", f.verify(), "card "+strconv.FormatUint(src.oid, 10)+":")
	f.kicks[0][0] -= 3

	// Stop the forwarders, then commit one more Kick: its Credit stays
	// in the outbox.
	for _, n := range f.nodes {
		n.fwd.Stop()
	}
	db := f.nodes[src.node].db
	tx := db.Begin()
	if err := db.PostUserEvent(tx, core.RefFromOID(storageOID(src.oid)), "Kick"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	f.kicks[0][0]++
	wantProblem(t, "outbox drain", f.verify(), "outbox still holds")
}

// TestBenchmarkJSONNamesEveryMetric: BENCHMARK.json's end-to-end and
// per-layer lists are exactly the metrics the two kinds of run print,
// with the same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// fleet-xshard reproduces a known engine defect (README.md) and is
	// the one implemented workload BENCHMARK.json leaves out.
	listed := map[string]bool{"fleet-xshard": true}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %q is not listed in BENCHMARK.json", name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			p, ok := printed[m.Name]
			if !ok || p.Unit != m.Unit {
				t.Errorf("%s: %s (%s) printed as %+v", kind, m.Name, m.Unit, p)
			}
		}
	}
	w := &wireMix{}
	if err := w.setup(&config{seed: 1, dir: t.TempDir(), scale: 0.01}, newTracer()); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res, err := measure(w, 2*window)
	if err != nil {
		t.Fatal(err)
	}
	res.Metrics["setup_s"] = metric{Unit: "s"}
	same("end_to_end", spec.EndToEnd, res.Metrics)
	layers := layerMetrics(newTally(time.Now()), newRegDelta(), newTracer())
	for _, n := range []string{"tail.txn_p99_us", "tail.read_p99_us"} {
		layers[n] = metric{Unit: "us"}
	}
	layers["obs.trace_overhead_pct"] = metric{Unit: "%"}
	same("per_layer", spec.PerLayer, layers)
}
