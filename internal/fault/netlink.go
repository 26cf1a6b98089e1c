package fault

// netlink.go extends the fault layer from the file beneath the log to
// the network beneath the replication stream: a *Link wraps any
// net.Conn and consults a NetPlan on the receive path, so chaos tests
// can cut the link after exactly the Nth frame, flip a byte inside a
// chosen frame, stall reads, or deliver a frame twice — all
// deterministically, from a caller-seeded plan. The downstream frames
// of the replication protocol are newline-delimited, so the wrapper is
// frame-aware: it reassembles complete frames from the raw byte stream
// and applies faults at frame granularity, which is what lets a sweep
// visit *every* frame boundary of a live session.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// NetCounters reports what flowed through a plan's links and which
// faults fired.
type NetCounters struct {
	Conns          uint64 // connections wrapped
	Frames         uint64 // complete frames delivered downstream
	BytesDelivered uint64
	Cuts           uint64 // armed cuts that fired
	Corruptions    uint64 // armed byte flips that fired
	Duplicates     uint64 // frames delivered twice
	Delays         uint64 // reads that slept
}

// NetPlan is a programmable fault plan for wrapped connections. Frame
// counts are cumulative across every connection the plan wraps, and
// one-shot faults (cut, corrupt, wedge) disarm after firing, so a
// redialled connection streams clean — the "flaky then healed" shape
// the anti-entropy proofs need. All methods are safe for concurrent
// use; arming methods return the plan for chaining.
type NetPlan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cutAt    uint64 // cut after delivering this many frames; 0 = off
	corrupt  uint64 // flip a byte inside this frame; 0 = off
	dupProb  float64
	delay    time.Duration // per-read delay while armed
	wedge    time.Duration // one-shot stall before the next read
	counters NetCounters
}

// NewNetPlan returns an empty plan; seed drives the probabilistic
// faults (duplication), so a fixed seed over a fixed stream injects the
// same faults.
func NewNetPlan(seed int64) *NetPlan {
	return &NetPlan{rng: rand.New(rand.NewSource(seed))}
}

// CutAfterFrames arms a link cut: the n-th complete downstream frame
// (1-based, cumulative across connections) is delivered, then the
// connection dies — further reads fail and the underlying conn closes,
// so the peer notices too. Fires once.
func (p *NetPlan) CutAfterFrames(n uint64) *NetPlan {
	p.mu.Lock()
	p.cutAt = n
	p.mu.Unlock()
	return p
}

// CorruptFrame arms a byte flip inside the n-th downstream frame
// (1-based). The flip may land in a payload (still valid JSON — only a
// semantic checksum can catch it) or in framing (a parse error); a
// correct receiver must survive both. Fires once.
func (p *NetPlan) CorruptFrame(n uint64) *NetPlan {
	p.mu.Lock()
	p.corrupt = n
	p.mu.Unlock()
	return p
}

// DuplicateFrames arms per-frame duplication with probability prob:
// the frame is delivered, then delivered again — the redundant-packet
// fault an idempotent apply path must absorb.
func (p *NetPlan) DuplicateFrames(prob float64) *NetPlan {
	p.mu.Lock()
	p.dupProb = prob
	p.mu.Unlock()
	return p
}

// DelayReads arms a fixed sleep before every underlying read until
// disarmed with DelayReads(0) — cheap jitter/slow-link simulation.
func (p *NetPlan) DelayReads(d time.Duration) *NetPlan {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
	return p
}

// WedgeOnce arms a single stall of d before the next underlying read —
// a transient partition that heals without dropping the connection.
func (p *NetPlan) WedgeOnce(d time.Duration) *NetPlan {
	p.mu.Lock()
	p.wedge = d
	p.mu.Unlock()
	return p
}

// Counters returns a snapshot of the plan's counters.
func (p *NetPlan) Counters() NetCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// Fired reports whether any armed fault has fired yet.
func (p *NetPlan) Fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters.Cuts+p.counters.Corruptions > 0
}

// Wrap interposes the plan on conn's receive path.
func (p *NetPlan) Wrap(conn net.Conn) net.Conn {
	p.mu.Lock()
	p.counters.Conns++
	p.mu.Unlock()
	return &Link{Conn: conn, p: p}
}

// Listener wraps ln so every connection it accepts reads through the
// plan: the server side of a link, where the plan faults requests.
func (p *NetPlan) Listener(ln net.Listener) net.Listener {
	return &planListener{Listener: ln, p: p}
}

type planListener struct {
	net.Listener
	p *NetPlan
}

func (l *planListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.Wrap(conn), nil
}

// Dialer returns a dial function (the shape repl.ReplicaOptions.Dial
// expects) that wraps every new connection with the plan.
func (p *NetPlan) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return p.Wrap(conn), nil
	}
}

// onFrame applies the armed frame faults to one complete frame
// (terminator included) and returns the bytes to deliver plus whether
// the link dies after them. Caller must not hold p.mu.
func (p *NetPlan) onFrame(frame []byte) (out []byte, cut bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counters.Frames++
	n := p.counters.Frames
	if p.corrupt != 0 && p.corrupt == n && len(frame) > 2 {
		frame = append([]byte(nil), frame...)
		frame[len(frame)/2] ^= 0x01 // spare the trailing terminator
		p.counters.Corruptions++
		p.corrupt = 0
	}
	out = frame
	if p.dupProb > 0 && p.rng.Float64() < p.dupProb {
		out = append(append([]byte(nil), frame...), frame...)
		p.counters.Duplicates++
	}
	if p.cutAt != 0 && p.cutAt == n {
		p.counters.Cuts++
		p.cutAt = 0
		cut = true
	}
	return out, cut
}

// preRead applies the armed timing faults. Caller must not hold p.mu.
func (p *NetPlan) preRead() {
	p.mu.Lock()
	d := p.delay
	w := p.wedge
	p.wedge = 0
	if d > 0 || w > 0 {
		p.counters.Delays++
	}
	p.mu.Unlock()
	if w > 0 {
		time.Sleep(w)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// ErrLinkCut is returned (wrapped in ErrInjected) by reads after an
// armed cut fired.
var ErrLinkCut = fmt.Errorf("%w: link cut", ErrInjected)

// Link is one faulted connection. Writes pass through untouched (the
// plans target the downstream frame flow); reads reassemble frames and
// route them through the plan.
type Link struct {
	net.Conn
	p *NetPlan

	mu   sync.Mutex
	raw  []byte // bytes read but not yet assembled into a frame
	out  []byte // faulted bytes ready for the caller
	dead bool
}

// Read serves reassembled, fault-processed bytes. When an armed cut
// fires, the bytes up to and including the cut frame are still
// delivered, then reads fail and the underlying connection closes.
func (l *Link) Read(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if len(l.out) > 0 {
			n := copy(b, l.out)
			l.out = l.out[n:]
			l.p.mu.Lock()
			l.p.counters.BytesDelivered += uint64(n)
			l.p.mu.Unlock()
			return n, nil
		}
		if l.dead {
			return 0, ErrLinkCut
		}
		l.p.preRead()
		tmp := make([]byte, 4096)
		n, err := l.Conn.Read(tmp)
		if n > 0 {
			l.raw = append(l.raw, tmp[:n]...)
			l.assemble()
		}
		if err != nil {
			if len(l.out) > 0 {
				continue // drain what the fault layer released first
			}
			if len(l.raw) > 0 {
				// Stream ended mid-frame: pass the tail through as-is —
				// a real half-delivered frame the receiver must reject.
				l.out = l.raw
				l.raw = nil
				continue
			}
			return 0, err
		}
	}
}

// assemble moves complete newline-terminated frames from raw through
// the plan into out. Caller holds l.mu.
func (l *Link) assemble() {
	for {
		idx := -1
		for i, c := range l.raw {
			if c == '\n' {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		frame := l.raw[:idx+1]
		l.raw = l.raw[idx+1:]
		out, cut := l.p.onFrame(frame)
		l.out = append(l.out, out...)
		if cut {
			l.dead = true
			l.raw = nil
			l.Conn.Close() // the peer's half dies too
			return
		}
	}
}

// Close closes the underlying connection.
func (l *Link) Close() error { return l.Conn.Close() }
