package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ode/internal/server"
)

// frontCap is the request size cap both fronts run with in the
// contract test.
const frontCap = 1024

// frontContract is the protocol front's client contract, one case per
// row. TestRouterFrontContract runs every row against a shard's own
// server and against the router, so the router is held to exactly the
// behaviour a server shows.
var frontContract = []struct {
	name string
	run  func(t *testing.T, addr string)
}{
	{"binary oversized request keeps the connection", func(t *testing.T, addr string) {
		cl, err := server.DialOptions(addr, server.ClientOptions{Binary: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.Call(&server.Request{Op: "get", Class: strings.Repeat("x", 2*frontCap)})
		if !errors.Is(err, server.ErrRequestTooLarge) {
			t.Fatalf("oversized request = %v, want ErrRequestTooLarge", err)
		}
		if err := cl.Begin(); err != nil {
			t.Fatalf("next call on the same connection: %v", err)
		}
		if err := cl.Abort(); err != nil {
			t.Fatal(err)
		}
		if n := cl.Reconnects(); n != 0 {
			t.Fatalf("client redialed %d times; an oversized frame must keep the connection", n)
		}
	}},
	{"JSON oversized line gets the typed error before the close", func(t *testing.T, addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(`{"op":"begin","class":"` + strings.Repeat("x", 2*frontCap) + "\"}\n")); err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
			t.Fatalf("no error line before the close: %v", err)
		}
		if resp.OK || !strings.HasPrefix(resp.Error, server.ErrRequestTooLarge.Error()) {
			t.Fatalf("response = %+v, want ErrRequestTooLarge", resp)
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("connection still open after an oversized line")
		}
	}},
	{"proto reports the wire counters", func(t *testing.T, addr string) {
		cl, err := server.DialOptions(addr, server.ClientOptions{Binary: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Abort(); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Call(&server.Request{Op: "proto"})
		if err != nil {
			t.Fatal(err)
		}
		st := decodeResult[server.ProtoStatus](t, resp.Result)
		if st.Protocol != "binary" || st.FramesIn == 0 || st.FramesOut == 0 || st.BytesIn == 0 || st.ConnsBinary == 0 {
			t.Fatalf("proto after traffic = %+v, want binary with non-zero counters", st)
		}
	}},
}

// TestRouterFrontContract: the router terminates the client protocols
// through the same front as a server, so every front contract case
// passes against both.
func TestRouterFrontContract(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{noRouter: true})
	srv := server.NewWithOptions(c.nodes[0].db, server.Options{MaxRequestBytes: frontCap})
	saddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rt, err := NewRouter(c.ring, RouterOptions{Addrs: c.addrs, MaxRequestBytes: frontCap})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	t.Cleanup(func() { rt.Close() })

	for _, front := range []struct{ name, addr string }{{"server", saddr}, {"router", ln.Addr().String()}} {
		for _, tc := range frontContract {
			t.Run(front.name+"/"+tc.name, func(t *testing.T) { tc.run(t, front.addr) })
		}
	}
}

// TestRouterForwardTiming: pipelined forwards are timed from send to
// completion, so n pipelined gets over a Mux raise router.forward_ns's
// count by exactly n.
func TestRouterForwardTiming(t *testing.T) {
	const n = 20
	c := startCluster(t, 2, clusterConfig{})
	ref := mkDoc(t, c.nodes[0], &Doc{})
	mux, err := server.DialMux(c.raddr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	s := mux.Session()
	before := c.router.forwardNs.Count()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	calls := make([]*server.Call, n)
	for i := range calls {
		calls[i] = s.Go(&server.Request{Op: "get", Ref: ref})
	}
	for i, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	// commit is a barrier: it settles the session's forwards before it
	// answers, and neither it nor the lazy begin is itself a forward.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.router.forwardNs.Count() - before; got != n {
		t.Fatalf("router.forward_ns count rose by %d over %d pipelined gets", got, n)
	}
}
