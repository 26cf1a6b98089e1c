package shard

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ode/internal/server"
)

// FuzzRouteRequest mirrors the wire layer's FuzzFrameDecode one level
// up: an arbitrary request — any op string, any field soup a JSON or
// ODE2 payload can decode into — must produce exactly one routing
// decision. No panic, no out-of-range destination, and every
// non-forwardable request carries a typed error; a request is never
// double-forwarded because the decision space is a single Route value.
// Every repl.* op is refused with ErrReplViaRouter.
func FuzzRouteRequest(f *testing.F) {
	seeds := []string{
		`{"op":"begin"}`,
		`{"op":"begin","snapshot":true}`,
		`{"op":"create","class":"Doc","value":{"Audits":1}}`,
		`{"op":"get","ref":18}`,
		`{"op":"invoke","ref":18446744073709551615,"method":"Bump"}`,
		`{"op":"post","ref":0,"event":"First"}`,
		`{"op":"deactivate","id":20}`,
		`{"op":"scan","cluster":"alldocs"}`,
		`{"op":"commit"}`,
		`{"op":"proto"}`,
		`{"op":"metrics"}`,
		`{"op":"trace","rate":-1}`,
		`{"op":"flight"}`,
		`{"op":"shard.status"}`,
		`{"op":"shard.ingest","origin":1,"events":[{"seq":1,"node":1,"target":19,"event":"First"}]}`,
		`{"op":"repl.subscribe","lsn":7}`,
		`{"op":"repl.recon"}`,
		`{"op":"repl.verify","repair":true}`,
		`{"op":"repl.promote"}`,
		`{"op":"repl.status"}`,
		`{"op":"repl."}`,
		`{"op":""}`,
		`{"op":"nonsense","ref":99}`,
		`{"not":"a request"}`,
		`garbage`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, shards int) {
		shards = shards%8 + 1
		if shards < 1 {
			shards += 8
		}
		ring := MustRing(shards, 16)
		var req server.Request
		if err := json.Unmarshal(data, &req); err != nil {
			// Not a decodable request: both fronts reject it before
			// routing, so routeOf never sees it. Still exercise routeOf
			// with the zero request below.
			req = server.Request{}
		}
		r := routeOf(ring, &req)
		if strings.HasPrefix(req.Op, "repl.") && (r.Kind != routeReject || !errors.Is(r.Err, ErrReplViaRouter)) {
			t.Fatalf("op %q: routed %d (%v), want a refusal with ErrReplViaRouter", req.Op, r.Kind, r.Err)
		}
		switch r.Kind {
		case routeLocal, routeCreate, routeAll:
			if r.Err != nil {
				t.Fatalf("op %q: kind %d carries unexpected error %v", req.Op, r.Kind, r.Err)
			}
		case routeOne:
			if r.Dest < 0 || r.Dest >= ring.Shards() {
				t.Fatalf("op %q: destination %d out of range for %d shards", req.Op, r.Dest, ring.Shards())
			}
		case routeReject:
			if r.Err == nil {
				t.Fatalf("op %q: rejected without a typed error", req.Op)
			}
		default:
			t.Fatalf("op %q: unknown route kind %d", req.Op, r.Kind)
		}
		// Determinism: the same request routes the same way twice (a
		// request is forwarded at most once, to one place).
		r2 := routeOf(ring, &req)
		if r.Kind != r2.Kind || r.Dest != r2.Dest {
			t.Fatalf("op %q: unstable route (%v,%d) vs (%v,%d)", req.Op, r.Kind, r.Dest, r2.Kind, r2.Dest)
		}
	})
}
