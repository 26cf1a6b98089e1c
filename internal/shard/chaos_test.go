package shard

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ode/internal/fault"
	"ode/internal/server"
)

// These tests are the headline proof of the sharding subsystem: a
// composite `,`-sequence trigger whose first event fires on shard A (a
// Chain trigger action posting to a B-owned object) and whose second
// fires on shard B must complete EXACTLY once, with the forward link
// killed at every frame boundary — before any frame (dial failure),
// after the request frame (apply succeeds, ack lost, redelivery), and
// after the ack frame (corrupted or cut acks force a resend the
// watermark must absorb).

// faultFront serves shard i's database on a second port whose accepted
// connections read through plan — so an armed cut kills the link right
// after the Nth request frame (what the forwarder sends) reached the
// shard: the batch applies, the ack is lost.
func faultFront(t *testing.T, c *testCluster, i int, plan *fault.NetPlan) string {
	t.Helper()
	db := c.nodes[i].db
	srv := server.NewWithOptions(db, server.Options{ExtraOps: Ops(db, c.ring, i, c.addrs)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(plan.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// runCrossShardRounds drives the headline scenario on a 2-shard
// cluster: rounds cross-shard captures (Chain on shard 0 posts First to
// a shard-1 Doc), each waited to full settlement, then the completing
// Second events — and asserts every composite fired exactly once.
func runCrossShardRounds(t *testing.T, c *testCluster, rounds int) {
	t.Helper()
	targets := make([]uint64, rounds)
	sources := make([]uint64, rounds)
	for i := 0; i < rounds; i++ {
		targets[i] = mkDoc(t, c.nodes[1], &Doc{})
		activate(t, c.nodes[1], targets[i], "Pair")
		sources[i] = mkDoc(t, c.nodes[0], &Doc{Next: targets[i]})
		activate(t, c.nodes[0], sources[i], "Chain")
	}
	for i := 0; i < rounds; i++ {
		post(t, c.nodes[0], sources[i], "Kick")
		// Settlement = the capture was forwarded, applied on shard 1,
		// acked, and trimmed — however many cuts it took.
		waitFor(t, 10*time.Second, fmt.Sprintf("round %d outbox drain", i), func() bool {
			return len(c.nodes[0].db.SettledOutbox()) == 0
		})
	}
	for i := 0; i < rounds; i++ {
		post(t, c.nodes[1], targets[i], "Second")
	}
	for i := 0; i < rounds; i++ {
		if got := audits(t, c.nodes[1], targets[i]); got != 1 {
			t.Fatalf("round %d: composite fired %d times, want exactly 1", i, got)
		}
	}
}

// TestCrossShardExactlyOnceRequestCutSweep kills the forward link right
// after the k-th request frame, for every k a clean run (plus its
// forced resends) can produce. The batch lands, the ack dies with the
// link; the resend must be absorbed by the receiver's watermark.
func TestCrossShardExactlyOnceRequestCutSweep(t *testing.T) {
	const rounds = 3
	for k := uint64(1); k <= 5; k++ {
		t.Run(fmt.Sprintf("cut_after_request_%d", k), func(t *testing.T) {
			plan := fault.NewNetPlan(int64(k)).CutAfterFrames(k)
			var once sync.Once
			var faultAddr string
			c := startCluster(t, 2, clusterConfig{
				noRouter: true,
				fwdAddrs: func(c *testCluster) []string {
					once.Do(func() { faultAddr = faultFront(t, c, 1, plan) })
					out := append([]string(nil), c.addrs...)
					out[1] = faultAddr
					return out
				},
			})
			runCrossShardRounds(t, c, rounds)
			if k <= rounds {
				if cuts := plan.Counters().Cuts; cuts != 1 {
					t.Fatalf("armed cut at frame %d never fired (cuts=%d)", k, cuts)
				}
				if dups := c.nodes[1].db.Observability().Snapshot(); dups == nil {
					t.Fatal("no metrics")
				}
			}
		})
	}
}

// TestCrossShardExactlyOnceAckCutSweep faults the ack stream instead:
// the k-th ack frame is corrupted (the link then cut one frame later),
// so the forwarder cannot trust the ack and must resend a batch the
// receiver has already applied.
func TestCrossShardExactlyOnceAckCutSweep(t *testing.T) {
	const rounds = 3
	for k := uint64(1); k <= 4; k++ {
		t.Run(fmt.Sprintf("corrupt_ack_%d", k), func(t *testing.T) {
			plan := fault.NewNetPlan(int64(k)).CorruptFrame(k).CutAfterFrames(k + 1)
			c := startCluster(t, 2, clusterConfig{
				noRouter: true,
				dialFor: func(self int) func(string, time.Duration) (net.Conn, error) {
					if self != 0 {
						return nil
					}
					return plan.Dialer()
				},
			})
			runCrossShardRounds(t, c, rounds)
		})
	}
}

// TestCrossShardExactlyOnceDialFailures covers the boundary before any
// frame: the first dials fail outright (the link is down), then heal.
func TestCrossShardExactlyOnceDialFailures(t *testing.T) {
	var failures sync.Mutex
	remaining := 3
	c := startCluster(t, 2, clusterConfig{
		noRouter: true,
		dialFor: func(self int) func(string, time.Duration) (net.Conn, error) {
			if self != 0 {
				return nil
			}
			return func(addr string, timeout time.Duration) (net.Conn, error) {
				failures.Lock()
				fail := remaining > 0
				if fail {
					remaining--
				}
				failures.Unlock()
				if fail {
					return nil, errors.New("injected: link down")
				}
				return net.DialTimeout("tcp", addr, timeout)
			}
		},
	})
	runCrossShardRounds(t, c, 2)
	failures.Lock()
	defer failures.Unlock()
	if remaining != 0 {
		t.Fatalf("%d injected dial failures never consumed", remaining)
	}
}

// TestCrossShardBatchRedeliveryCounters pins the dedup bookkeeping: a
// cut-ack redelivery must show up in shard.ingest_dups on the receiver,
// while shard.ingested counts each event exactly once.
func TestCrossShardBatchRedeliveryCounters(t *testing.T) {
	plan := fault.NewNetPlan(7).CutAfterFrames(1)
	var once sync.Once
	var faultAddr string
	c := startCluster(t, 2, clusterConfig{
		noRouter: true,
		fwdAddrs: func(c *testCluster) []string {
			once.Do(func() { faultAddr = faultFront(t, c, 1, plan) })
			out := append([]string(nil), c.addrs...)
			out[1] = faultAddr
			return out
		},
	})
	runCrossShardRounds(t, c, 2)
	var ingested, dups uint64
	for _, mv := range c.nodes[1].db.Observability().Snapshot() {
		switch mv.Name {
		case "shard.ingested":
			ingested = mv.Value
		case "shard.ingest_dups":
			dups = mv.Value
		}
	}
	if ingested != 2 {
		t.Fatalf("shard.ingested = %d, want 2 (one per cross-shard event)", ingested)
	}
	if dups == 0 {
		t.Fatal("shard.ingest_dups = 0: the lost-ack redelivery was never observed")
	}
}
