// Command perfbench is the repository benchmark: it runs one named
// workload against the Ode engine for a fixed time, checks that the
// engine's outputs are correct, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// every benchmark decorator absent. With -trace 1 they are the
// per-layer metrics: the run alternates untraced and traced slices of
// equal length over one set-up, wraps the storage manager and the WAL
// file, times the benchmark's own calls into each layer, samples
// direct trigger-index lookups, and reads deltas of the engine's obs
// registry over the traced slices only. README.md lists every metric
// and the end-to-end metric each per-layer metric should move.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench -workload armed-scale|wire-mix|fleet-xshard -seed N \
//	    -seconds S -trace 0|1 [-cpuprofile FILE] [-dir SCRATCH]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"ode/internal/obs"
	"ode/internal/storage"
)

// Each run builds its workload's environment at least minSetups times
// and until setupBudget has passed (at most maxSetups times, evenly
// spaced over the budget); setup_s is the median. The measured load
// runs on the last environment.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 5 * time.Second
)

// warmup runs the load untimed before measuring, so lazy set-up and
// cache fill are not billed to the first measured operations.
const warmup = time.Second

// config is one benchmark invocation.
type config struct {
	seed  int64
	dir   string // scratch directory for stores; removed afterwards
	trace bool
	// scale shrinks the workload's object counts (tests use < 1).
	scale float64
}

func (c *config) n(full int) int {
	n := int(float64(full) * c.scale)
	if n < 8 {
		n = 8
	}
	return n
}

// workload is one named benchmark workload.
type workload interface {
	// setup builds a fresh environment, closing any previous one.
	setup(cfg *config, tr *tracer) error
	// registries are the obs registries whose deltas feed the
	// per-layer metrics.
	registries() []*obs.Registry
	// run drives the load for d and returns what the clients saw.
	run(d time.Duration, traced bool) (*tally, error)
	// verify checks the final state against the generator's model.
	verify() error
	close()
}

// fleet-xshard is not listed in BENCHMARK.json: on the current engine
// it fails its exactly-once check on most runs (README.md, "Known
// defect"). It stays runnable so the defect can be reproduced.
var workloads = map[string]func() workload{
	"armed-scale":  func() workload { return &armed{} },
	"wire-mix":     func() workload { return &wireMix{} },
	"fleet-xshard": func() workload { return &fleet{} },
}

func main() {
	name := flag.String("workload", "", "workload: armed-scale, wire-mix or fleet-xshard")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured load to `file`")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for stores")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := &config{seed: *seed, dir: filepath.Join(*dir, fmt.Sprintf("%s-%d", *name, os.Getpid())), trace: *trace == 1, scale: 1}
	res, err := bench(mk(), cfg, time.Duration(*seconds)*time.Second, *cpuprofile)
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printResult(res, cfg)
}

// metric is one named, unit-carrying result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind a percentile (0: not a percentile)
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

// bench sets the workload up, measures it and verifies it.
func bench(w workload, cfg *config, d time.Duration, cpuprofile string) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	var setupS samples
	began := time.Now()
	for k := 0; k < minSetups || (k < maxSetups && time.Since(began) < setupBudget); k++ {
		// The previous environment's teardown and garbage are not part
		// of this set-up.
		w.close()
		runtime.GC()
		// Set-up k starts no earlier than k/maxSetups of the budget in,
		// so short set-ups spread over the whole budget and a burst of
		// outside load on a shared host meets only a few of them.
		time.Sleep(time.Until(began.Add(time.Duration(k) * setupBudget / maxSetups)))
		start := time.Now()
		if err := w.setup(cfg, tr); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()
	if _, err := w.run(warmup, false); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var res *result
	var err error
	if cfg.trace {
		res, err = measureTraced(w, tr, d)
	} else {
		res, err = measure(w, d)
		if err == nil {
			res.Metrics["setup_s"] = metric{Value: setupS.quantile(0.5), Unit: "s"}
		}
	}
	if err != nil {
		return nil, err
	}
	if err := w.verify(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// measure is the untraced run: one slice of length d, end-to-end
// metrics only, each the interquartile mean over its one-second
// windows.
func measure(w workload, d time.Duration) (*result, error) {
	nwin := int(d / window)
	// cpus[i] is the process CPU time at the start of window i.
	cpus := []time.Duration{cpuTime()}
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for len(cpus) <= nwin {
			select {
			case <-tk.C:
				cpus = append(cpus, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	t, err := w.run(d, false)
	close(stop)
	<-ticked
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var rate, cpu samples
	for i := 0; i < nwin; i++ {
		ops := float64(t.txn.count(i+1) - t.txn.count(i) + t.arm.count(i+1) - t.arm.count(i) + t.read.count(i+1) - t.read.count(i))
		rate = append(rate, ops/window.Seconds())
		if i+1 < len(cpus) && ops > 0 {
			cpu = append(cpu, float64((cpus[i+1]-cpus[i]).Microseconds())/ops)
		}
	}
	q := func(ws windows, q float64) metric {
		v, n := ws.quantile(q, nwin)
		return metric{Value: v, Unit: "us", n: n}
	}
	m := map[string]metric{
		"txn_per_s":     {Value: rate.iqm(), Unit: "1/s"},
		"txn_p50_us":    q(t.txn, 0.50),
		"arm_p50_us":    q(t.arm, 0.50),
		"read_p50_us":   q(t.read, 0.50),
		"ok_ratio":      {Value: ratio(float64(t.attempted-t.failed), float64(t.attempted)), Unit: "ratio"},
		"cpu_us_per_op": {Value: cpu.iqm(), Unit: "us"},
		"heap_mb":       {Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MiB"},
	}
	return &result{Attempted: t.attempted, Failed: t.failed, Metrics: m, problems: t.problems}, nil
}

// measureTraced is the traced run: four slices of d/4 alternating
// untraced and traced. Per-layer metrics come from the traced slices;
// obs.trace_overhead_pct compares CPU per operation between the two.
func measureTraced(w workload, tr *tracer, d time.Duration) (*result, error) {
	delta := newRegDelta()
	total, traced, untraced := newTally(time.Now()), newTally(time.Now()), newTally(time.Now())
	var cpuOn, cpuOff time.Duration
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		tr.on.Store(on)
		before := make([]regSnap, 0, 4)
		for _, r := range w.registries() {
			before = append(before, snapOf(r))
		}
		cpu0 := cpuTime()
		t, err := w.run(d/4, on)
		cpu := cpuTime() - cpu0
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		total.merge(t)
		if !on {
			cpuOff += cpu
			untraced.merge(t)
			continue
		}
		cpuOn += cpu
		for j, r := range w.registries() {
			delta.add(before[j], snapOf(r))
		}
		traced.merge(t)
	}
	m := layerMetrics(traced, delta, tr)
	on := ratio(float64(cpuOn), float64(traced.attempted))
	off := ratio(float64(cpuOff), float64(total.attempted-traced.attempted))
	m["obs.trace_overhead_pct"] = metric{Value: 100 * (on - off) / off, Unit: "%"}
	// The tails come from the untraced slices. They are per-layer figures
	// only because run-to-run they swing too far on a shared 2-core host
	// to carry a regression bound.
	m["tail.txn_p99_us"] = metric{Value: untraced.txn.pooled().quantile(0.99), Unit: "us", n: untraced.txn.count(len(untraced.txn))}
	m["tail.read_p99_us"] = metric{Value: untraced.read.pooled().quantile(0.99), Unit: "us", n: untraced.read.count(len(untraced.read))}
	return &result{Attempted: total.attempted, Failed: total.failed, Metrics: m, problems: total.problems}, nil
}

// layerMetrics derives every per-layer metric from one traced tally,
// the registry deltas over the same slices, and the decorators' totals.
// A layer a workload does not run reports 0.
func layerMetrics(t *tally, d *regDelta, tr *tracer) map[string]metric {
	posts := d.c("core.events_posted")
	begun := d.c("txn.begun")
	committed := d.c("txn.committed")
	done := float64(t.attempted)
	fired := d.c("core.fired_immediate") + d.c("core.fired_deferred") + d.c("core.fired_dependent") + d.c("core.fired_independent")
	hits, pages := d.c("storage.cache_hits"), d.c("storage.page_reads")
	v := func(x float64, unit string) metric { return metric{Value: x, Unit: unit} }
	p50 := func(s samples, unit string) metric { return metric{Value: s.quantile(0.5), Unit: unit, n: len(s)} }
	lag := make(samples, len(t.lag))
	for i, x := range t.lag {
		lag[i] = x / 1e3
	}
	return map[string]metric{
		"obj.index_read_bytes_per_post": v(ratio(float64(tr.indexReadBytes.Swap(0)), posts), "B"),
		"obj.state_read_bytes_per_post": v(ratio(float64(tr.stateReadBytes.Swap(0)), posts), "B"),
		"obj.triggers_on_p50_us":        p50(t.triggersOn, "us"),
		"obj.index_write_bytes_per_arm": v(ratio(float64(tr.indexWriteBytes.Swap(0)), float64(t.armChanges)), "B"),

		"core.invoke_p50_us":      p50(t.invoke, "us"),
		"core.commit_p50_us":      p50(t.commit, "us"),
		"core.fast_path_ratio":    v(ratio(d.c("core.fast_path_skips"), posts), "ratio"),
		"core.fsm_advance_p50_ns": v(d.quantile("core.fsm_advance_ns", 0.5), "ns"),
		"core.action_p50_ns":      v(d.quantile("core.action_ns", 0.5), "ns"),
		"core.fired_per_kop":      v(1000*ratio(fired, done), "count"),

		"lock.waits_per_txn":      v(ratio(d.c("lock.waits"), begun), "count"),
		"lock.deadlocks_per_ktxn": v(1000*ratio(d.c("lock.deadlocks"), begun), "count"),
		"txn.commit_wait_p50_us":  v(d.quantile("txn.commit_wait_ns", 0.5)/1e3, "us"),

		"storage.read_p50_us":         p50(tr.reads.take(), "us"),
		"storage.apply_commit_p50_us": p50(tr.applies.take(), "us"),
		"storage.cache_hit_ratio":     v(ratio(hits, hits+pages), "ratio"),
		"storage.page_reads_per_txn":  v(ratio(pages, committed), "count"),
		"storage.checkpoints":         v(d.c("storage.checkpoints"), "count"),

		"wal.sync_p50_us":         p50(tr.syncs.take(), "us"),
		"wal.commits_per_fsync":   v(ratio(d.c("storage.group_commits"), d.c("storage.fsyncs")), "count"),
		"wal.write_bytes_per_txn": v(ratio(float64(tr.walWriteBytes.Swap(0)), committed), "B"),

		"server.rtt_p50_us":              p50(t.rtt, "us"),
		"server.bytes_per_op":            v(ratio(d.c("server.bytes_in")+d.c("server.bytes_out"), done), "B"),
		"server.frames_per_op":           v(ratio(d.c("server.frames_in")+d.c("server.frames_out"), done), "count"),
		"server.pipeline_depth_p50":      v(d.quantile("server.pipeline_depth", 0.5), "count"),
		"load.gen_late_p99_us":           metric{Value: t.genLate.quantile(0.99), Unit: "us", n: len(t.genLate)},
		"router.route_p50_ns":            v(d.quantile("router.route_ns", 0.5), "ns"),
		"router.forward_p50_ns":          v(d.quantile("router.forward_ns", 0.5), "ns"),
		"shard.events_per_forward_batch": v(ratio(d.c("shard.forward_events"), d.c("shard.forward_batches")), "count"),
		"shard.outbox_pending_max":       v(float64(t.outboxMax), "count"),
		"shard.ingest_dup_ratio":         v(ratio(d.c("shard.ingest_dups"), d.c("shard.ingested")+d.c("shard.ingest_dups")), "ratio"),
		"shard.xshard_lag_p50_ms":        metric{Value: lag.quantile(0.50), Unit: "ms", n: len(lag)},
		"shard.xshard_lag_p99_ms":        metric{Value: lag.quantile(0.99), Unit: "ms", n: len(lag)},
	}
}

// printResult writes the human-readable report — host fingerprint,
// every metric with its sample count, any correctness problem — and
// then the one-line JSON result.
func printResult(res *result, cfg *config) {
	fp, _ := json.Marshal(hostFingerprint(cfg))
	fmt.Printf("host %s\n", fp)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.n > 0 {
			fmt.Printf("%-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, p := range res.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// hostFingerprint records what the numbers depend on besides the code.
func hostFingerprint(cfg *config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"wal_fs":     fsType(filepath.Dir(cfg.dir)),
		"flush":      "fsync per WAL group commit; auto-checkpoint on (eos defaults)",
		"seed":       cfg.seed,
		"trace":      cfg.trace,
	}
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// window is the unit end-to-end metrics are computed over: each is the
// interquartile mean of its per-window values, so a burst of outside
// load that hits a few windows of a run does not move the run's figure.
const window = time.Second

// windows holds latency samples by the measurement window they
// completed in.
type windows []samples

func (ws *windows) add(w int, d time.Duration) {
	for len(*ws) <= w {
		*ws = append(*ws, nil)
	}
	(*ws)[w].add(d)
}

// count returns the samples in the first n windows.
func (ws windows) count(n int) int {
	c := 0
	for i := 0; i < n && i < len(ws); i++ {
		c += len(ws[i])
	}
	return c
}

// pooled returns every sample in one series.
func (ws windows) pooled() samples {
	var all samples
	for _, s := range ws {
		all = append(all, s...)
	}
	return all
}

// quantile estimates the q-quantile over the first n windows: it groups
// consecutive windows so each group holds at least 10 samples beyond
// the quantile, takes the quantile in each group, and returns the
// interquartile mean across groups with the total sample count.
func (ws windows) quantile(q float64, n int) (float64, int) {
	total := ws.count(n)
	groups := int(float64(total) * (1 - q) / 10)
	if groups > n {
		groups = n
	}
	if groups < 1 {
		groups = 1
	}
	var per samples
	for g := 0; g < groups; g++ {
		var s samples
		for i := g * n / groups; i < (g+1)*n/groups && i < len(ws); i++ {
			s = append(s, ws[i]...)
		}
		if len(s) > 0 {
			per = append(per, s.quantile(q))
		}
	}
	return per.iqm(), total
}

// tally is what a workload's clients observed over one slice.
type tally struct {
	start             time.Time // window 0 starts here
	attempted, failed int       // failed: errors other than intended DenyCredit aborts
	armChanges        int       // committed Activate + Deactivate calls
	txn, arm, read    windows
	invoke, commit    samples // in-process calls, traced slices only
	triggersOn, rtt   samples // sampled probes, traced slices only
	genLate           samples // open loop: how late each arrival was issued
	lag               samples // cross-shard: Chain firing to remote Tally, µs
	outboxMax         uint64
	problems          []string
}

func newTally(start time.Time) *tally { return &tally{start: start} }

// record adds one completed transaction's latency to series.
func (t *tally) record(series *windows, now time.Time, d time.Duration) {
	series.add(int(now.Sub(t.start)/window), d)
}

func (a *tally) merge(b *tally) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.problems = append(a.problems, b.problems...)
	a.armChanges += b.armChanges
	for _, p := range []struct{ to, from *windows }{{&a.txn, &b.txn}, {&a.arm, &b.arm}, {&a.read, &b.read}} {
		for i, s := range *p.from {
			for len(*p.to) <= i {
				*p.to = append(*p.to, nil)
			}
			(*p.to)[i] = append((*p.to)[i], s...)
		}
	}
	a.invoke = append(a.invoke, b.invoke...)
	a.commit = append(a.commit, b.commit...)
	a.triggersOn = append(a.triggersOn, b.triggersOn...)
	a.rtt = append(a.rtt, b.rtt...)
	a.genLate = append(a.genLate, b.genLate...)
	a.lag = append(a.lag, b.lag...)
	if b.outboxMax > a.outboxMax {
		a.outboxMax = b.outboxMax
	}
}

// mergeAll folds client tallies into one.
func mergeAll(start time.Time, ts []*tally) *tally {
	out := newTally(start)
	for _, t := range ts {
		out.merge(t)
	}
	return out
}

func storageOID(oid uint64) storage.OID { return storage.OID(oid) }

// problemf records a correctness violation, keeping the list short.
func (t *tally) problemf(format string, args ...any) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// joinProblems turns violations into one error (nil when none).
func joinProblems(ps []string) error {
	if len(ps) == 0 {
		return nil
	}
	if len(ps) > 10 {
		ps = append(ps[:10], fmt.Sprintf("... and %d more", len(ps)-10))
	}
	return fmt.Errorf("%s", strings.Join(ps, "; "))
}
