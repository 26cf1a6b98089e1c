package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
)

// Router serves a shard fleet through the one protocol front
// (server.Server, both client protocols) and forwards each op to the
// shard that owns it. The client-visible contract is the single-server
// one — same ops, same JSON payloads, same session model, same framing
// and wire counters — with documented deviations (docs/SHARDING.md):
//
//   - A transaction that touches several shards commits per shard, in
//     shard order, not atomically: a crash mid-commit can land a prefix.
//   - metrics, trace, flight, trace.rate, trace.chain, and shard.status
//     fan out to every shard and answer with the merged, node-tagged
//     fleet view (metrics folds in the router's own registry and a
//     "fleet" aggregate; docs/OBSERVABILITY.md §"Fleet observability").
//   - repl.* and shard.ingest ops are refused with typed errors: they
//     are per-node, so their callers dial a shard directly.
//
// Backends are one Mux per shard: every front session maps to a lazily
// created MuxSession per shard it touches, so backend connections are
// shared while transaction state stays per-session.
type Router struct {
	ring  *Ring
	opts  RouterOptions
	muxes []*server.Mux
	reg   *obs.Registry
	rr    atomic.Uint64
	front *server.Server

	requests *obs.Counter
	fanouts  *obs.Counter
	rejects  *obs.Counter

	routeNs   *obs.Histogram
	forwardNs *obs.Histogram
	mergeNs   *obs.Histogram
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Addrs lists every shard's listen address, indexed by ring slot.
	Addrs []string
	// Client configures the backend muxes (timeouts, redial policy).
	Client server.ClientOptions
	// MaxRequestBytes caps one front request. Default
	// server.DefaultMaxRequestBytes.
	MaxRequestBytes int
}

// ErrIngestViaRouter rejects a shard.ingest sent through the router:
// the op is shard-to-shard (each batch is bound to one origin/owner
// pair) and cannot be meaningfully split by a relay.
var ErrIngestViaRouter = errors.New("shard: shard.ingest must be sent to the owning shard directly, not through the router")

// ErrReplViaRouter rejects every repl.* op sent through the router:
// replication streams, audits and promotion are per node, so a replica
// of a shard dials that shard.
var ErrReplViaRouter = errors.New("shard: repl.* ops must be sent to a shard directly, not through the router")

// ErrUnknownOp rejects an op the router has no routing rule for.
var ErrUnknownOp = errors.New("shard: unknown op")

// NewRouter dials the backend muxes and returns a router ready to
// Serve.
func NewRouter(ring *Ring, opts RouterOptions) (*Router, error) {
	if len(opts.Addrs) != ring.Shards() {
		return nil, fmt.Errorf("shard: %d addrs for %d shards", len(opts.Addrs), ring.Shards())
	}
	rt := &Router{
		ring: ring,
		opts: opts,
		reg:  obs.NewRegistry(),
	}
	rt.requests = rt.reg.Counter("shard.route_requests", "count", "client requests routed to a shard")
	rt.fanouts = rt.reg.Counter("shard.route_fanouts", "count", "requests fanned out to every shard")
	rt.rejects = rt.reg.Counter("shard.route_rejects", "count", "requests rejected at the router (typed error)")
	rt.routeNs = rt.reg.Histogram("router.route_ns", "ns", "time to classify a request and ready its backend (lazy transaction join included)")
	rt.forwardNs = rt.reg.Histogram("router.forward_ns", "ns", "backend round-trip time per forwarded call, from send to completion")
	rt.mergeNs = rt.reg.Histogram("router.merge_ns", "ns", "time to merge a fan-out's responses into the fleet view")
	rt.front = server.NewFront(rt.newSession, rt.reg, server.Options{MaxRequestBytes: opts.MaxRequestBytes})
	rt.muxes = make([]*server.Mux, ring.Shards())
	for i, addr := range opts.Addrs {
		m, err := server.DialMux(addr, opts.Client)
		if err != nil {
			for _, prev := range rt.muxes[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: dial shard %d at %s: %w", i, addr, err)
		}
		rt.muxes[i] = m
	}
	return rt, nil
}

// Observability exposes the router's metric registry: shard.route_*,
// router.* and the front's server.* wire counters.
func (rt *Router) Observability() *obs.Registry { return rt.reg }

// Serve accepts front connections on ln until Close. It blocks.
func (rt *Router) Serve(ln net.Listener) error { return rt.front.Serve(ln) }

// Close stops accepting, hangs up every front connection (closing its
// sessions), and closes the backend muxes, which aborts any open
// backend transactions.
func (rt *Router) Close() error {
	err := rt.front.Close()
	for _, m := range rt.muxes {
		m.Close()
	}
	return err
}

// --- routing decisions --------------------------------------------------------

// routeKind classifies where one request goes.
type routeKind int

const (
	routeLocal  routeKind = iota // answered at the router
	routeOne                     // exactly one shard: Route.Dest
	routeCreate                  // one shard, chosen round-robin at dispatch
	routeAll                     // fan-out to every shard, merge
	routeReject                  // typed error: Route.Err
)

// Route is one routing decision. Exactly one decision exists per
// request — routeOf is a pure function of (ring, request) — which is
// what FuzzRouteRequest leans on: no panic, no double-forward, dest
// always in range.
type Route struct {
	Kind routeKind
	Dest int
	Err  error
}

// routeOf classifies req. Pure: no router state, no side effects.
// (proto never gets here: the protocol front answers it.)
func routeOf(ring *Ring, req *server.Request) Route {
	switch req.Op {
	case "begin", "commit", "abort":
		return Route{Kind: routeLocal}
	case "create":
		return Route{Kind: routeCreate}
	case "get", "invoke", "post", "activate", "triggers", "clusteradd":
		return Route{Kind: routeOne, Dest: ring.Owner(req.Ref)}
	case "deactivate":
		// Trigger-state objects are minted by the anchor's shard, so
		// the trigger id's OID routes like any other ref.
		return Route{Kind: routeOne, Dest: ring.Owner(req.ID)}
	case "scan":
		return Route{Kind: routeAll}
	case "metrics", "trace", "flight", "trace.rate", "trace.chain", "shard.status":
		// The fleet observability plane: every shard answers, the router
		// merges (and contributes its own registry / flight ring).
		return Route{Kind: routeAll}
	case "shard.ingest":
		return Route{Kind: routeReject, Err: ErrIngestViaRouter}
	default:
		if strings.HasPrefix(req.Op, "repl.") {
			return Route{Kind: routeReject, Err: ErrReplViaRouter}
		}
		return Route{Kind: routeReject, Err: fmt.Errorf("%w %q", ErrUnknownOp, req.Op)}
	}
}

// --- per-session dispatch -----------------------------------------------------

// rsession is the router's FrontSession: which backend MuxSessions a
// front session holds, which of them have an open transaction, and
// which forwarded calls it has not yet observed. The front drives it
// from one goroutine.
type rsession struct {
	rt       *Router
	backends map[int]*server.MuxSession
	touched  map[int]struct{} // backends holding an open transaction
	inTx     bool
	snapshot bool
	pending  []forwarded
}

// forwarded is a call sent to shard dest and not yet observed.
type forwarded struct {
	dest int
	call *server.Call
}

func (rt *Router) newSession() server.FrontSession {
	return &rsession{
		rt:       rt,
		backends: make(map[int]*server.MuxSession),
		touched:  make(map[int]struct{}),
	}
}

// Do starts one request. Single-shard ops are forwarded without
// waiting: the backend Call is the response, so a pipelining client
// keeps its depth through the router. Every other op is a barrier that
// first settles the session's forwarded calls.
func (s *rsession) Do(req *server.Request) *server.Call {
	rt := s.rt
	r := routeOf(rt.ring, req)
	if r.Kind != routeOne && r.Kind != routeCreate {
		s.settle(true)
		return server.Answered(s.handle(req, r))
	}
	s.settle(false)
	d := r.Dest
	if r.Kind == routeCreate {
		d = int(rt.rr.Add(1)) % rt.ring.Shards()
	}
	rt.requests.Add(1)
	t0 := time.Now()
	b, failed := s.enter(d)
	rt.routeNs.Observe(time.Since(t0).Nanoseconds())
	if failed != nil {
		return server.Answered(failed)
	}
	call := b.Go(req)
	s.pending = append(s.pending, forwarded{dest: d, call: call})
	return call
}

// settle observes the session's forwarded calls, oldest first — every
// one when wait is set, else up to the first still in flight — timing
// each and mirroring a backend abort (trigger TAbort, deadlock victim)
// onto the whole front transaction: the single-server contract. Ops
// pipelined behind an aborted one fail at their backends ("no open
// transaction"), exactly as a pipelining client of a single server
// would see.
func (s *rsession) settle(wait bool) {
	n := 0
	for ; n < len(s.pending); n++ {
		f := s.pending[n]
		if !wait && !f.call.Completed() {
			break
		}
		resp, _ := f.call.Wait()
		s.rt.forwardNs.Observe(f.call.Elapsed().Nanoseconds())
		if resp != nil && resp.Aborted {
			s.abortTouched(f.dest)
		}
	}
	if n > 0 {
		m := copy(s.pending, s.pending[n:])
		clear(s.pending[m:])
		s.pending = s.pending[:m]
	}
}

// Close settles the forwarded calls and retires every backend session
// (aborting their transactions).
func (s *rsession) Close() {
	s.settle(true)
	for _, b := range s.backends {
		b.Close()
	}
	s.backends = nil
	s.touched = nil
}

// backend returns (lazily creating) the session's MuxSession on shard d.
func (s *rsession) backend(d int) *server.MuxSession {
	if b, ok := s.backends[d]; ok {
		return b
	}
	b := s.rt.muxes[d].Session()
	s.backends[d] = b
	return b
}

// enter readies shard d for an op: if the front session has an open
// transaction that d has not joined yet, a begin (with the session's
// snapshot flag) is sent first. This lazy join is what keeps a
// single-shard transaction as cheap through the router as against a
// single server.
func (s *rsession) enter(d int) (*server.MuxSession, *server.Response) {
	b := s.backend(d)
	if !s.inTx {
		return b, nil
	}
	if _, ok := s.touched[d]; ok {
		return b, nil
	}
	if resp := server.Relay(b.Call(&server.Request{Op: "begin", Snapshot: s.snapshot})); !resp.OK {
		return nil, resp
	}
	s.touched[d] = struct{}{}
	return b, nil
}

// handle answers one barrier op, routed r.
func (s *rsession) handle(req *server.Request, r Route) *server.Response {
	rt := s.rt
	switch r.Kind {
	case routeLocal:
		return s.handleLocal(req)
	case routeAll:
		rt.fanouts.Add(1)
		return s.fanout(req)
	}
	rt.rejects.Add(1)
	return &server.Response{Error: r.Err.Error()}
}

// abortTouched aborts every joined backend except skip (already
// resolved) and closes the front transaction.
func (s *rsession) abortTouched(skip int) {
	for d := range s.touched {
		if d == skip {
			continue
		}
		s.backends[d].Call(&server.Request{Op: "abort"})
	}
	s.touched = make(map[int]struct{})
	s.inTx = false
	s.snapshot = false
}

// fanout sends req to every shard and merges the responses. scan joins
// the session's transaction; the observability ops are sessionless and
// merge node-tagged snapshots instead.
func (s *rsession) fanout(req *server.Request) *server.Response {
	if req.Op == "scan" {
		return s.fanoutScan(req)
	}
	return s.fanoutObs(req)
}

// fanoutScan merges scan responses: the union of Refs, sorted for
// determinism.
func (s *rsession) fanoutScan(req *server.Request) *server.Response {
	var refs []uint64
	for d := 0; d < s.rt.ring.Shards(); d++ {
		b, failed := s.enter(d)
		if failed != nil {
			return failed
		}
		t0 := time.Now()
		resp := server.Relay(b.Call(req))
		s.rt.forwardNs.Observe(time.Since(t0).Nanoseconds())
		if !resp.OK {
			return resp
		}
		refs = append(refs, resp.Refs...)
	}
	t1 := time.Now()
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	s.rt.mergeNs.Observe(time.Since(t1).Nanoseconds())
	return &server.Response{OK: true, Refs: refs}
}

// fanoutObs broadcasts an observability op to every shard — outside any
// front transaction; the ops are sessionless on the shards too — and
// merges the node-tagged responses into the fleet view. A shard that
// cannot answer fails the whole request by name: a silently partial
// fleet view would read as "nothing happened on shard 3".
func (s *rsession) fanoutObs(req *server.Request) *server.Response {
	rt := s.rt
	breq := *req
	if req.Op == "trace.chain" {
		// Collect flat events from every shard; assembly happens once,
		// here, with the whole fleet's links in hand.
		breq.Raw = true
	}
	calls := make([]*server.Response, rt.ring.Shards())
	for d := 0; d < rt.ring.Shards(); d++ {
		t0 := time.Now()
		resp := server.Relay(s.backend(d).Call(&breq))
		rt.forwardNs.Observe(time.Since(t0).Nanoseconds())
		if !resp.OK {
			return &server.Response{Error: fmt.Sprintf("shard %d: %s", d, resp.Error)}
		}
		calls[d] = resp
	}
	t1 := time.Now()
	resp := s.mergeObs(req, calls)
	rt.mergeNs.Observe(time.Since(t1).Nanoseconds())
	return resp
}

// decodeResults re-marshals each fan-out response's Result into out[i]
// (a pointer to a slice or struct): the mux client decodes Result as
// untyped JSON, and a round trip is the protocol-faithful way back to
// the typed form.
func decodeResults[T any](calls []*server.Response) ([]T, error) {
	out := make([]T, len(calls))
	for i, resp := range calls {
		raw, err := json.Marshal(resp.Result)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, err)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, err)
		}
	}
	return out, nil
}

// mergeObs builds the fleet view for one observability fan-out.
func (s *rsession) mergeObs(req *server.Request, calls []*server.Response) *server.Response {
	rt := s.rt
	fail := func(err error) *server.Response {
		return &server.Response{Error: fmt.Sprintf("shard: merge %s: %v", req.Op, err)}
	}
	switch req.Op {
	case "metrics":
		// Per-shard entries (node-tagged by each shard), the router's own
		// registry tagged "router", and a bucket-exact aggregate tagged
		// "fleet", sorted by (name, node) for determinism.
		snaps, err := decodeResults[[]obs.MetricValue](calls)
		if err != nil {
			return fail(err)
		}
		merged := obs.TagMetrics("fleet", obs.MergeSnapshots(snaps...))
		merged = append(merged, obs.TagMetrics("router", rt.reg.Snapshot())...)
		for _, snap := range snaps {
			merged = append(merged, snap...)
		}
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].Name != merged[j].Name {
				return merged[i].Name < merged[j].Name
			}
			return merged[i].Node < merged[j].Node
		})
		return &server.Response{OK: true, Result: merged}
	case "trace":
		recs, err := decodeResults[[]obs.TraceRecord](calls)
		if err != nil {
			return fail(err)
		}
		var merged []obs.TraceRecord
		for _, rs := range recs {
			merged = append(merged, rs...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].StartUnixNs < merged[j].StartUnixNs })
		return &server.Response{OK: true, Result: merged}
	case "flight":
		recs, err := decodeResults[[]obs.IncidentRecord](calls)
		if err != nil {
			return fail(err)
		}
		merged := obs.TagIncidents("router", obs.Flight().Snapshot())
		for _, rs := range recs {
			merged = append(merged, rs...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].TUnixNs < merged[j].TUnixNs })
		return &server.Response{OK: true, Result: merged}
	case "trace.rate":
		acks, err := decodeResults[server.TraceRateAck](calls)
		if err != nil {
			return fail(err)
		}
		out := make([]RateAck, len(acks))
		for d, ack := range acks {
			out[d] = RateAck{Shard: d, Node: ack.Node, Rate: ack.Rate}
		}
		return &server.Response{OK: true, Result: RateAcks{Acks: out}}
	case "trace.chain":
		raws, err := decodeResults[server.ChainEvents](calls)
		if err != nil {
			return fail(err)
		}
		var evs []obs.ChainEvent
		for _, r := range raws {
			evs = append(evs, r.Events...)
		}
		if req.Raw {
			return &server.Response{OK: true, Result: server.ChainEvents{Events: evs}}
		}
		if _, ok := obs.ParseCause(req.Cause); !ok {
			return &server.Response{Error: fmt.Sprintf("%v: got %q", server.ErrInvalidChainCause, req.Cause)}
		}
		return &server.Response{OK: true, Result: obs.AssembleChain(req.Cause, evs)}
	case "shard.status":
		fleet := make([]Status, len(calls))
		for d, resp := range calls {
			if err := json.Unmarshal(resp.Value, &fleet[d]); err != nil {
				return fail(fmt.Errorf("shard %d: %v", d, err))
			}
		}
		st := Status{
			Shards: rt.ring.Shards(),
			Vnodes: rt.ring.Vnodes(),
			Self:   -1,
			Node:   "router",
			Addrs:  append([]string(nil), rt.opts.Addrs...),
			Fleet:  fleet,
		}
		raw, err := json.Marshal(st)
		if err != nil {
			return fail(err)
		}
		return &server.Response{OK: true, Value: raw}
	}
	return fail(fmt.Errorf("unmergeable op"))
}

// RateAck is one shard's acknowledgment of a broadcast trace.rate.
type RateAck struct {
	Shard int    `json:"shard"`
	Node  string `json:"node"`
	Rate  uint64 `json:"rate"`
}

// RateAcks is the router's trace.rate result: every shard's ack, in
// ring order.
type RateAcks struct {
	Acks []RateAck `json:"acks"`
}

// handleLocal answers the transaction boundary, which the router owns.
func (s *rsession) handleLocal(req *server.Request) *server.Response {
	if req.Op == "begin" {
		if s.inTx {
			return &server.Response{Error: "transaction already open"}
		}
		s.inTx = true
		s.snapshot = req.Snapshot
		return &server.Response{OK: true}
	}
	// commit or abort
	if !s.inTx {
		return &server.Response{Error: "no open transaction (send begin first)"}
	}
	dests := make([]int, 0, len(s.touched))
	for d := range s.touched {
		dests = append(dests, d)
	}
	sort.Ints(dests) // deterministic commit order (docs/SHARDING.md)
	var errs []string
	aborted := false
	for _, d := range dests {
		if resp := server.Relay(s.backends[d].Call(&server.Request{Op: req.Op})); !resp.OK {
			errs = append(errs, fmt.Sprintf("shard %d: %s", d, resp.Error))
			aborted = aborted || resp.Aborted
		}
	}
	s.touched = make(map[int]struct{})
	s.inTx = false
	s.snapshot = false
	if len(errs) > 0 {
		return &server.Response{Error: strings.Join(errs, "; "), Aborted: aborted}
	}
	return &server.Response{OK: true}
}
