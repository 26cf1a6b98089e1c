package experiments

import (
	"fmt"
	"net"
	"time"

	"ode/internal/server"
)

// E23 measures what the ODE2 binary wire protocol buys over the JSON
// request/response protocol on the same server (docs/PROTOCOL.md).
// The JSON protocol is lockstep — one request, one response, one
// network round trip per posting — so a client's throughput is bounded
// by RTT no matter how fast the engine is. Binary framing carries
// request IDs, which lets a client pipeline: keep a window of requests
// in flight and match responses by ID. The same framing also multiplexes
// sessions (sid) over one shared connection (server.Mux).
//
// The measured load is the E16 server workload moved onto the new
// transport: concurrent clients invoking Buy on private cards over the
// main-memory store, so the wire — not fsync — is the bottleneck.
// Table 1 pipelines postings inside one transaction per client; table 2
// re-runs E16's transaction load (begin/Buy/commit per transaction),
// pipelining the whole triple.
//
// Raw loopback is the *best* case for the JSON protocol — RTT is a few
// microseconds, so lockstep costs only syscalls and scheduler wakeups,
// and the measured gain there is whatever write coalescing saves. The
// claim pipelining exists for is hiding *network* latency, so the
// headline measurement routes both protocols through a latencyRelay
// that adds tc-netem-style propagation delay (1 ms RTT, the low end of
// a same-region network) without limiting bandwidth: lockstep pays the
// RTT on every posting, the pipelined window hides it.

// e23Window is the pipelining depth: how many requests a client keeps
// in flight before waiting on the oldest. Deeper than the server's
// coalescing buffer needs, shallow enough to stay well inside the
// server's per-connection queue depth.
const e23Window = 64

// sessionRounds is how many paired rounds E23–E25 run; each session's
// operations are split evenly over them.
const sessionRounds = 5

// e23Modes are the transports E23 compares; "json" is the reference arm.
var e23Modes = []string{"json", "binary", "mux"}

// endpoint is where E23–E25 clients connect: a server or router address
// and one committed card per client.
type endpoint struct {
	addr string
	refs []uint64
}

// wireEnv is one running server plus per-client cards.
type wireEnv struct {
	endpoint
	srv   *server.Server
	dbcls func()
}

// Close shuts the server and database down.
func (e *wireEnv) Close() {
	e.srv.Close()
	e.dbcls()
}

// newWireEnv starts an in-process ode-server over the main-memory store
// with one committed card per client.
func newWireEnv(clients int) (*wireEnv, error) {
	db, err := memDB()
	if err != nil {
		return nil, err
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	env := &wireEnv{endpoint: endpoint{addr: addr}, srv: srv, dbcls: func() { db.Close() }}

	setup, err := server.Dial(addr)
	if err != nil {
		env.Close()
		return nil, err
	}
	defer setup.Close()
	if err := setup.Begin(); err != nil {
		env.Close()
		return nil, err
	}
	env.refs = make([]uint64, clients)
	for i := range env.refs {
		env.refs[i], err = setup.Create("CredCard", &CredCard{Holder: "bench", CredLim: 1e12, GoodHist: true})
		if err != nil {
			env.Close()
			return nil, err
		}
	}
	if err := setup.Commit(); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// latencyRelay is a TCP forwarder that adds one-way propagation delay
// in each direction, emulating network RTT on loopback the way tc
// netem does. Each direction keeps reading while delayed chunks wait
// their delivery time, so it delays *latency only* — pipelined traffic
// flows at full bandwidth, lockstep traffic pays the delay per turn.
type latencyRelay struct {
	ln    net.Listener
	delay time.Duration
	Addr  string
}

func newLatencyRelay(backend string, delay time.Duration) (*latencyRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &latencyRelay{ln: ln, delay: delay, Addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				b, err := net.Dial("tcp", backend)
				if err != nil {
					c.Close()
					return
				}
				go r.pump(b, c)
				r.pump(c, b)
			}(c)
		}
	}()
	return r, nil
}

func (r *latencyRelay) Close() { r.ln.Close() }

// pump forwards src to dst, delivering each read chunk r.delay after it
// arrived. The reader goroutine never blocks on the delay, so chunks
// queue behind each other exactly as packets do in flight. Coarse
// runtime timers can stretch the delay (delay is a floor, not an
// exact figure); both protocols ride the same relay, so the comparison
// stays fair either way.
func (r *latencyRelay) pump(src, dst net.Conn) {
	type chunk struct {
		at   time.Time
		data []byte
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer close(ch)
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				ch <- chunk{at: time.Now().Add(r.delay), data: append([]byte(nil), buf[:n]...)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		if d := time.Until(c.at); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
}

// withRTT returns a view of the environment reached through a latency
// relay adding rtt of round-trip delay; stop tears the relay down.
func (e *wireEnv) withRTT(rtt time.Duration) (*wireEnv, func(), error) {
	relay, err := newLatencyRelay(e.addr, rtt/2)
	if err != nil {
		return nil, nil, err
	}
	v := *e
	v.addr = relay.Addr
	return &v, relay.Close, nil
}

// sessions opens one session per client on the requested transport:
// "json" (a JSON-protocol Client), "binary" (a binary-protocol Client,
// one connection each), or "mux" (MuxSessions sharing one connection).
func (e *endpoint) sessions(mode string) ([]server.Session, func(), error) {
	out := make([]server.Session, len(e.refs))
	var closers []func()
	cleanup := func() {
		for _, fn := range closers {
			fn()
		}
	}
	var mux *server.Mux
	for i := range out {
		switch mode {
		case "json":
			c, err := server.Dial(e.addr)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			closers = append(closers, func() { c.Close() })
			out[i] = c
		case "binary":
			c, err := server.DialOptions(e.addr, server.ClientOptions{Binary: true})
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			closers = append(closers, func() { c.Close() })
			out[i] = c
		case "mux":
			if mux == nil {
				m, err := server.DialMux(e.addr, server.ClientOptions{})
				if err != nil {
					cleanup()
					return nil, nil, err
				}
				mux = m
				closers = append(closers, func() { m.Close() })
			}
			out[i] = mux.Session()
		default:
			cleanup()
			return nil, nil, fmt.Errorf("e23: unknown transport %q", mode)
		}
	}
	return out, cleanup, nil
}

// pairedSessions runs paired rounds over arms, arm i on sessions opened
// on eps[i] over transport modes[i] once, outside the timed segments.
// Each session's n operations are split evenly over the rounds; seg
// runs k of them on one arm and returns its figure.
func pairedSessions(eps []*endpoint, modes []string, n int, seg func(arm int, ss []server.Session, k int) (float64, error)) (*rounds, error) {
	arms := make([][]server.Session, len(eps))
	for i, ep := range eps {
		sessions, cleanup, err := ep.sessions(modes[i])
		if err != nil {
			return nil, err
		}
		defer cleanup()
		arms[i] = sessions
	}
	return pairedRounds(sessionRounds, len(eps), func(arm int, warm bool) (float64, error) {
		k := n / sessionRounds
		if warm {
			k = max(k/4, 1)
		}
		return seg(arm, arms[arm], k)
	})
}

// drive runs work on every session at once and returns ops/s for
// len(sessions)*perOps operations.
func drive(sessions []server.Session, perOps int, work func(s server.Session, w int) error) (float64, error) {
	elapsed, err := fanOut(len(sessions), func(w int) error { return work(sessions[w], w) })
	return float64(len(sessions)*perOps) / elapsed.Seconds(), err
}

// pipelined issues n requests through build with a sliding window of
// window calls in flight, then drains.
func pipelined(s server.Session, window, n int, build func(i int) *server.Request) error {
	pending := make([]*server.Call, 0, window)
	for i := 0; i < n; i++ {
		pending = append(pending, s.Go(build(i)))
		if len(pending) == window {
			if _, err := pending[0].Wait(); err != nil {
				return err
			}
			pending = pending[1:]
		}
	}
	for _, c := range pending {
		if _, err := c.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// posting measures posting throughput over open sessions: each opens
// one transaction and invokes Buy perOps times on its own card. mode
// "json" runs lockstep (one RTT per invoke); "binary" and "mux"
// pipeline with a window of e23Window in-flight requests.
func (e *wireEnv) posting(sessions []server.Session, perOps int, mode string) (float64, error) {
	return drive(sessions, perOps, func(s server.Session, w int) error {
		if err := s.Begin(); err != nil {
			return err
		}
		if mode == "json" {
			for i := 0; i < perOps; i++ {
				if _, err := s.Invoke(e.refs[w], "Buy", 1.0); err != nil {
					return err
				}
			}
		} else {
			err := pipelined(s, e23Window, perOps, func(int) *server.Request {
				return &server.Request{Op: "invoke", Ref: e.refs[w], Method: "Buy", Args: []any{1.0}}
			})
			if err != nil {
				return err
			}
		}
		return s.Commit()
	})
}

// paired measures every transport as the arms of paired rounds on e;
// arm i is e23Modes[i].
func (e *wireEnv) paired(n int, measure func(e *wireEnv, ss []server.Session, n int, mode string) (float64, error)) (*rounds, error) {
	eps := []*endpoint{&e.endpoint, &e.endpoint, &e.endpoint}
	return pairedSessions(eps, e23Modes, n, func(arm int, ss []server.Session, k int) (float64, error) {
		return measure(e, ss, k, e23Modes[arm])
	})
}

// measureWireTxns re-runs E16's server table on each transport: one
// committed transaction per Buy. The pipelined transports keep whole
// begin/invoke/commit triples in flight — per-session FIFO makes that
// sound, since the server processes a session's frames in order.
func (e *wireEnv) measureWireTxns(sessions []server.Session, perTxns int, mode string) (float64, error) {
	return drive(sessions, perTxns, func(s server.Session, w int) error {
		if mode == "json" {
			for i := 0; i < perTxns; i++ {
				if err := s.Begin(); err != nil {
					return err
				}
				if _, err := s.Invoke(e.refs[w], "Buy", 1.0); err != nil {
					return err
				}
				if err := s.Commit(); err != nil {
					return err
				}
			}
			return nil
		}
		return pipelined(s, e23Window, 3*perTxns, func(i int) *server.Request {
			switch i % 3 {
			case 0:
				return &server.Request{Op: "begin"}
			case 1:
				return &server.Request{Op: "invoke", Ref: e.refs[w], Method: "Buy", Args: []any{1.0}}
			default:
				return &server.Request{Op: "commit"}
			}
		})
	})
}

// E23 measures wire-protocol throughput: pipelined binary framing (and
// its multiplexed variant) against the JSON lockstep baseline, over
// loopback TCP on the main-memory store.
func (r *Runner) E23() Result {
	res := Result{ID: "E23", Title: "wire pipelining: binary protocol vs JSON request/response"}
	r.header("E23", res.Title, "§2 (client/server object manager), §7 (multi-application sharing)",
		"request-ID pipelining lifts server posting throughput >=5x over the JSON protocol's one-RTT-per-posting lockstep at 16 clients on a network-RTT link")

	perOps := r.Cfg.scale(4000)
	fail := func(err error) Result {
		res.Summary = err.Error()
		return res
	}

	// Every row runs the three transports as paired rounds; the cells
	// are medians. The 16-client server stays up for the later tables.
	fmt.Fprintf(r.W, "postings/s, raw loopback, one open transaction per client (window %d, median of %d paired rounds):\n", e23Window, sessionRounds)
	fmt.Fprintf(r.W, "%-10s %14s %14s %14s\n", "clients", "json", "binary", "mux")
	var env *wireEnv
	var loop *rounds
	for _, clients := range []int{1, 4, 16} {
		if env != nil {
			env.Close()
		}
		var err error
		if env, err = newWireEnv(clients); err != nil {
			return fail(err)
		}
		if loop, err = env.paired(perOps, (*wireEnv).posting); err != nil {
			env.Close()
			return fail(err)
		}
		fmt.Fprintf(r.W, "%-10d %14.0f %14.0f %14.0f\n", clients, loop.median(0), loop.median(1), loop.median(2))
	}
	defer env.Close()

	fmt.Fprintf(r.W, "txn/s, begin+Buy+commit per transaction, 16 clients:\n")
	txn, err := env.paired(perOps/2, (*wireEnv).measureWireTxns)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(r.W, "%-10s %14.0f %14.0f %14.0f\n", "", txn.median(0), txn.median(1), txn.median(2))

	// The headline row: the same 16-client posting load through an
	// emulated 1 ms-RTT network, where latency — not the loopback
	// scheduler — is what lockstep pays per posting.
	const rtt = time.Millisecond
	rttEnv, stop, err := env.withRTT(rtt)
	if err != nil {
		return fail(err)
	}
	defer stop()
	rtts, err := rttEnv.paired(perOps, (*wireEnv).posting)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(r.W, "postings/s, emulated %v-RTT network, 16 clients:\n", rtt)
	fmt.Fprintf(r.W, "%-10s %14.0f %14.0f %14.0f\n", "", rtts.median(0), rtts.median(1), rtts.median(2))

	speedup, noise := rtts.ratio(1)
	muxup, _ := rtts.ratio(2)
	loopBinary, _ := loop.ratio(1)
	loopMux, _ := loop.ratio(2)
	txnBinary, _ := txn.ratio(1)
	res.Passed = speedup >= 5
	res.Metrics = map[string]float64{
		"ratio/loopback/binary": loopBinary,
		"ratio/loopback/mux":    loopMux,
		"ratio/rtt1ms/binary":   speedup,
		"ratio/rtt1ms/mux":      muxup,
	}
	res.Summary = fmt.Sprintf("binary pipelining %.1fx (mux %.1fx, noise floor %.1fx) the JSON protocol's posting throughput at 16 clients over a %v-RTT link; raw loopback %.1fx; txn load %.1fx",
		speedup, muxup, noise, rtt, loopBinary, txnBinary)
	return res
}
