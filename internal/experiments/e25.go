package experiments

import (
	"encoding/json"
	"fmt"

	"ode/internal/server"
	"ode/internal/shard"
)

// E25 measures what the fleet observability plane costs when it is on:
// the E24 routed transaction workload (begin/Buy×k/commit per client
// through one router, DenyCredit trigger active, two shards), A/B with
// firing-trace sampling disabled versus 1-in-e25Rate across the whole
// fleet. The rate change itself takes the production path — a single
// trace.rate broadcast through the router, acked per shard — so the
// experiment exercises the plane it is pricing. The claim mirrors E20's
// single-node one at fleet scale: the sampling gate is one atomic load
// per posting and the ring write is off the commit path, so a traced
// fleet should keep ≥98% of its untraced throughput.

// e25Rate is the 1-in-n sampling rate the traced arm runs at: dense
// enough that traces actually land in every shard's ring during the
// run, sparse enough to be a realistic production setting.
const e25Rate = 16

// setFleetTraceRate broadcasts a sampling-rate change through the
// router's trace.rate op and verifies every shard acknowledged the new
// rate.
func (e *shardEnv) setFleetTraceRate(rate int64) error {
	c, err := server.DialOptions(e.addr, server.ClientOptions{Binary: true})
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Call(&server.Request{Op: "trace.rate", Rate: rate})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("trace.rate: %s", resp.Error)
	}
	raw, err := json.Marshal(resp.Result)
	if err != nil {
		return err
	}
	var acks shard.RateAcks
	if err := json.Unmarshal(raw, &acks); err != nil {
		return err
	}
	if len(acks.Acks) != len(e.nodes) {
		return fmt.Errorf("trace.rate: %d acks for %d shards", len(acks.Acks), len(e.nodes))
	}
	want := uint64(0)
	if rate > 0 {
		want = uint64(rate)
	}
	for _, ack := range acks.Acks {
		if ack.Rate != want {
			return fmt.Errorf("trace.rate: shard %d (node %s) acked rate %d, want %d", ack.Shard, ack.Node, ack.Rate, want)
		}
	}
	return nil
}

// E25 measures fleet-tracing overhead on the routed E24 workload.
func (r *Runner) E25() Result {
	res := Result{ID: "E25", Title: "fleet observability: tracing overhead on the routed workload"}
	r.header("E25", res.Title, "docs/OBSERVABILITY.md §Fleet observability, docs/SHARDING.md",
		"1-in-16 fleet-wide trace sampling (set by one trace.rate broadcast through the router) costs <=2% routed transaction throughput")

	const shards, clients, opsPerTxn = 2, 16, 4
	perTxns := r.Cfg.scale(2000) / opsPerTxn
	env, err := newShardEnv(shards, clients)
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer env.Close()
	// Arm 0 is untraced, arm 1 traced, on the same fleet: each segment
	// first broadcasts its arm's rate.
	rates := []int64{-1, e25Rate}
	rs, err := pairedTxns([]*shardEnv{env, env}, perTxns, opsPerTxn, func(arm int) error {
		return env.setFleetTraceRate(rates[arm])
	})
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	untraced, traced := rs.median(0), rs.median(1)
	ratio, noise := rs.ratio(1)
	fmt.Fprintf(r.W, "postings/s, %d shards, %d clients, begin+Buy×%d+commit per txn, DenyCredit active (window %d, node service time %v, median of %d paired rounds):\n",
		shards, clients, opsPerTxn, e24Window, e24Pace, sessionRounds)
	fmt.Fprintf(r.W, "%-24s %14s\n", "tracing", "postings/s")
	fmt.Fprintf(r.W, "%-24s %14.0f\n", "off (rate -1)", untraced)
	fmt.Fprintf(r.W, "%-24s %14.0f   (%.1f%% of untraced, noise floor %.1f%%)\n", fmt.Sprintf("1-in-%d fleet-wide", e25Rate), traced, ratio*100, noise*100)

	res.Passed = ratio >= 0.98
	res.Metrics = map[string]float64{"ratio/traced": ratio}
	res.Summary = fmt.Sprintf("1-in-%d fleet tracing keeps %.1f%% of untraced routed throughput (%.0f vs %.0f postings/s, %d shards)",
		e25Rate, ratio*100, traced, untraced, shards)
	return res
}
