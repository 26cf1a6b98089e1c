package experiments

import (
	"fmt"
	"net"
	"time"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage/dali"
)

// E24 measures what horizontal sharding buys on the server workload
// (docs/SHARDING.md). One ode-server owns every object and every
// trigger firing; a shard fleet partitions the OID space on the
// consistent-hash ring, so disjoint transactions run on disjoint
// engines, disjoint stores, and disjoint backend links. The measured
// load is the E23 transaction workload with triggers active — each
// client commits begin/Buy×k/commit transactions against its own card,
// with the perpetual DenyCredit trigger evaluating its mask on every
// posting — driven through one ode-router front speaking the pipelined
// binary protocol. The router is held constant while the fleet behind
// it grows 1→2→4, so the curve isolates what partitioning adds; the
// paper's single-process design (§6) is the flat line this subsystem
// exists to bend.
//
// Node model. The paper's Ode is one process with one thread of
// control (§6): a node serves transactions serially. On real hardware
// each shard is such a node on its own machine; in this in-process
// sweep every shard would share the host's cores, which measures the
// host, not the topology. So — the same emulation move as E23's
// fixed-RTT link — each shard's store carries an emulated per-commit
// service time (dali.SetCommitPace, e24Pace): commits on one node
// serialize behind it with the CPU idle, nodes overlap freely. What
// the curve then isolates is exactly the subsystem's claim: the ring
// spreads load evenly, the router adds no serialization of its own,
// and aggregate capacity grows with the fleet. An unbalanced ring or a
// lockstep router would flatten it regardless of the pace.

// e24Window is the per-client pipelining depth through the router.
const e24Window = 32

// e24Pace is the emulated per-node transaction service time (see the
// node model above): high enough that a 4-shard fleet's frame handling
// stays far from saturating the host, so the sweep measures topology,
// not host CPU.
const e24Pace = 3 * time.Millisecond

// e24Node is one in-process shard: database, server, forwarder.
type e24Node struct {
	db  *core.Database
	srv *server.Server
	fwd *shard.Forwarder
}

// shardEnv is a running shard fleet plus a router in front. Its
// endpoint is the router; the cards are spread across shards by the
// router's create placement.
type shardEnv struct {
	endpoint
	nodes  []*e24Node
	router *shard.Router
}

// Close tears the router and every shard down.
func (e *shardEnv) Close() {
	if e.router != nil {
		e.router.Close()
	}
	for _, n := range e.nodes {
		if n.fwd != nil {
			n.fwd.Stop()
		}
		n.srv.Close()
		n.db.Close()
	}
}

// newShardEnv boots shards main-memory shard servers with forwarders, a
// router fronting them, and one committed card per client with the
// DenyCredit trigger active (activated through the router, so placement
// and activation both take the production path).
func newShardEnv(shards, clients int) (*shardEnv, error) {
	ring, err := shard.NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	env := &shardEnv{}
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		m := dali.New()
		m.SetOIDFilter(ring.OIDFilter(i))
		m.SetCommitPace(e24Pace)
		db, err := core.NewDatabase(m)
		if err != nil {
			env.Close()
			return nil, err
		}
		db.Causes().SetNode(uint64(0xE2400 + i))
		if err := db.Register(CredCardClass()); err != nil {
			db.Close()
			env.Close()
			return nil, err
		}
		if err := db.EnableSharding(ring.OIDFilter(i)); err != nil {
			db.Close()
			env.Close()
			return nil, err
		}
		srv := server.NewWithOptions(db, server.Options{ExtraOps: shard.Ops(db, ring, i, addrs)})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			db.Close()
			env.Close()
			return nil, err
		}
		addrs[i] = addr
		env.nodes = append(env.nodes, &e24Node{db: db, srv: srv})
	}
	for i, n := range env.nodes {
		fwd, err := shard.NewForwarder(n.db, ring, shard.ForwarderOptions{Self: i, Addrs: addrs})
		if err != nil {
			env.Close()
			return nil, err
		}
		n.fwd = fwd
		go fwd.Run()
	}

	rt, err := shard.NewRouter(ring, shard.RouterOptions{Addrs: addrs})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Close()
		return nil, err
	}
	env.addr = ln.Addr().String()
	go rt.Serve(ln)

	setup, err := server.DialOptions(env.addr, server.ClientOptions{Binary: true})
	if err != nil {
		env.Close()
		return nil, err
	}
	defer setup.Close()
	env.refs = make([]uint64, clients)
	for i := range env.refs {
		// One transaction per card: create and activate stay on the
		// owning shard, and the router's round-robin placement spreads
		// the cards across the fleet.
		if err := setup.Begin(); err != nil {
			env.Close()
			return nil, err
		}
		env.refs[i], err = setup.Create("CredCard", &CredCard{Holder: "bench", CredLim: 1e12, GoodHist: true})
		if err != nil {
			env.Close()
			return nil, err
		}
		if _, err := setup.Activate(env.refs[i], "DenyCredit"); err != nil {
			env.Close()
			return nil, err
		}
		if err := setup.Commit(); err != nil {
			env.Close()
			return nil, err
		}
	}
	return env, nil
}

// txns drives perTxns committed transactions per session through the
// router — each begin/Buy×opsPerTxn/commit pipelined on the session —
// and returns aggregate postings/s.
func (e *shardEnv) txns(sessions []server.Session, perTxns, opsPerTxn int) (float64, error) {
	frame := opsPerTxn + 2 // begin + postings + commit
	return drive(sessions, perTxns*opsPerTxn, func(s server.Session, w int) error {
		return pipelined(s, e24Window, perTxns*frame, func(i int) *server.Request {
			switch i % frame {
			case 0:
				return &server.Request{Op: "begin"}
			case frame - 1:
				return &server.Request{Op: "commit"}
			default:
				return &server.Request{Op: "invoke", Ref: e.refs[w], Method: "Buy", Args: []any{1.0}}
			}
		})
	})
}

// pairedTxns runs the routed transaction workload on each env as the
// arms of paired rounds (an env may serve more than one arm). prep,
// when non-nil, runs untimed before each of an arm's segments.
func pairedTxns(envs []*shardEnv, perTxns, opsPerTxn int, prep func(arm int) error) (*rounds, error) {
	eps := make([]*endpoint, len(envs))
	modes := make([]string, len(envs))
	for i, env := range envs {
		eps[i], modes[i] = &env.endpoint, "binary"
	}
	return pairedSessions(eps, modes, perTxns, func(arm int, ss []server.Session, k int) (float64, error) {
		if prep != nil {
			if err := prep(arm); err != nil {
				return 0, err
			}
		}
		return envs[arm].txns(ss, k, opsPerTxn)
	})
}

// E24 measures shard-fleet throughput scaling: the E23 transaction
// workload with the DenyCredit trigger active, 16 clients through one
// router, against 1, 2, and 4 main-memory shards. The three fleets are
// built once and measured as paired rounds.
func (r *Runner) E24() Result {
	res := Result{ID: "E24", Title: "horizontal sharding: fleet throughput through one router"}
	r.header("E24", res.Title, "§6 (single-process implementation), docs/SHARDING.md",
		"partitioning the OID space across 4 shards lifts routed transaction throughput >=1.7x over one shard, triggers active")

	const clients, opsPerTxn = 16, 4
	perTxns := r.Cfg.scale(2000) / opsPerTxn
	grid := []int{1, 2, 4}

	envs := make([]*shardEnv, len(grid))
	for i, shards := range grid {
		env, err := newShardEnv(shards, clients)
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		defer env.Close()
		envs[i] = env
	}
	rs, err := pairedTxns(envs, perTxns, opsPerTxn, nil)
	if err != nil {
		res.Summary = err.Error()
		return res
	}

	fmt.Fprintf(r.W, "postings/s, %d clients, begin+Buy×%d+commit per txn, DenyCredit active (window %d, node service time %v, median of %d paired rounds):\n",
		clients, opsPerTxn, e24Window, e24Pace, sessionRounds)
	fmt.Fprintf(r.W, "%-10s %14s %10s %10s\n", "shards", "postings/s", "vs 1", "noise")
	res.Metrics = map[string]float64{}
	for i, shards := range grid {
		ratio, noise := rs.ratio(i)
		if shards > 1 {
			res.Metrics[fmt.Sprintf("ratio/shards=%d", shards)] = ratio
		}
		fmt.Fprintf(r.W, "%-10d %14.0f %9.2fx %9.2fx\n", shards, rs.median(i), ratio, noise)
	}

	ratio2 := res.Metrics["ratio/shards=2"]
	ratio4 := res.Metrics["ratio/shards=4"]
	res.Passed = ratio4 >= 1.7
	res.Summary = fmt.Sprintf("4 shards carry %.2fx one shard's routed throughput (2 shards %.2fx), triggers active, router constant",
		ratio4, ratio2)
	return res
}
