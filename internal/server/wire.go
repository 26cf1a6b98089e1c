package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client side of the ODE2 binary protocol: a wire is one upgraded
// connection shared by any number of in-flight requests. One writer
// goroutine drains a queue of pre-encoded frames and flushes only when
// the queue runs dry (small-write coalescing); one reader goroutine
// decodes response frames and completes the matching Call from an
// in-flight table keyed by request ID. Both the single-session Client
// (sid 0) and the multiplexing Mux (one sid per MuxSession) run on
// this core.

// clientMaxFrame caps a response frame's payload. Responses can be
// large (a metrics snapshot, a big cluster scan) but a length prefix
// beyond this is a corrupt or hostile stream, not a real response.
const clientMaxFrame = 1 << 30

// Call is one in-flight request: a future completed by the reader loop
// when the response frame with the matching ID arrives, or failed by a
// transport error (which fails every in-flight call — the connection is
// gone and at-most-once delivery forbids replay).
type Call struct {
	Req *Request

	resp    *Response
	err     error
	once    sync.Once
	done    chan struct{}
	start   time.Time
	elapsed time.Duration
}

func newCall(req *Request) *Call {
	return &Call{Req: req, done: make(chan struct{}), start: time.Now()}
}

// answered is the done channel of every Call built by Answered.
var answered = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Answered returns a Call already complete with resp: what a
// FrontSession returns for a request it answered on the spot.
func Answered(resp *Response) *Call {
	return &Call{resp: resp, err: respError(resp), done: answered}
}

// complete settles the call exactly once; later completions (a response
// racing a transport failure) are no-ops.
func (c *Call) complete(resp *Response, err error) {
	c.once.Do(func() {
		c.resp, c.err = resp, err
		c.elapsed = time.Since(c.start)
		close(c.done)
	})
}

// Done returns a channel closed when the call has completed, for
// select-based waiting.
func (c *Call) Done() <-chan struct{} { return c.done }

// Completed reports whether the call has completed, without waiting.
func (c *Call) Completed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the response (or transport failure) and returns it,
// with the same typed-error mapping as a synchronous call:
// RedirectError, ErrRemoteAborted, ErrRequestTooLarge.
func (c *Call) Wait() (*Response, error) {
	<-c.done
	return c.resp, c.err
}

// Elapsed is the time from sending the request to its completion; it
// is zero for an Answered call. Call it after Done.
func (c *Call) Elapsed() time.Duration { return c.elapsed }

// Relay turns a call's outcome into the response to pass on: the
// peer's own response when there is one (error, aborted flag and
// redirect included), else the transport error.
func Relay(resp *Response, err error) *Response {
	if resp == nil {
		return &Response{Error: err.Error()}
	}
	return resp
}

// wire is one binary-protocol connection.
type wire struct {
	conn net.Conn
	out  chan []byte   // encoded frames awaiting the writer
	done chan struct{} // closed on transport failure / Close
	once sync.Once

	mu       sync.Mutex
	inflight map[uint64]*Call
	nextID   uint64
	err      error // sticky first transport error
}

// dialWire connects and performs the ODE2 handshake.
func dialWire(addr string, timeout time.Duration) (*wire, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := conn.Write([]byte(protoMagic)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake send: %w", err)
	}
	br := bufio.NewReader(conn)
	var echo [len(protoMagic)]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake recv: %w", err)
	}
	if string(echo[:]) != protoMagic {
		conn.Close()
		return nil, fmt.Errorf("server: binary handshake rejected: echo %q", echo[:])
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	w := &wire{
		conn:     conn,
		out:      make(chan []byte, binQueueDepth),
		done:     make(chan struct{}),
		inflight: make(map[uint64]*Call),
	}
	go w.readLoop(br)
	go w.writeLoop()
	return w, nil
}

// broken reports whether the wire has seen a transport failure.
func (w *wire) broken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// fail records the first transport error, closes the connection, and
// completes every in-flight call with it. Safe to call multiple times
// and from any goroutine.
func (w *wire) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	err = w.err
	calls := w.inflight
	w.inflight = make(map[uint64]*Call)
	w.mu.Unlock()
	w.once.Do(func() { close(w.done) })
	w.conn.Close()
	for _, c := range calls {
		c.complete(nil, err)
	}
}

// send enqueues one request frame and returns its Call. Never blocks
// forever: if the transport dies, the enqueue aborts via done.
func (w *wire) send(sid uint32, req *Request) *Call {
	call := newCall(req)
	payload, err := json.Marshal(req)
	if err != nil {
		call.complete(nil, err)
		return call
	}
	w.enqueue(frameReq, sid, payload, call)
	return call
}

// sendClose enqueues a close-session frame for sid (Mux teardown).
func (w *wire) sendClose(sid uint32) *Call {
	call := newCall(nil)
	w.enqueue(frameClose, sid, nil, call)
	return call
}

func (w *wire) enqueue(typ byte, sid uint32, payload []byte, call *Call) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		call.complete(nil, err)
		return
	}
	w.nextID++
	id := w.nextID
	w.inflight[id] = call
	w.mu.Unlock()

	var buf bytes.Buffer
	buf.Grow(4 + frameHeaderLen + len(payload))
	writeFrame(&buf, typ, sid, id, payload) // cannot fail on a bytes.Buffer
	select {
	case w.out <- buf.Bytes():
	case <-w.done:
		// fail() has run (or is running); it completes this call via the
		// inflight table, or complete() here is a no-op if it already did.
		call.complete(nil, w.lastErr())
	}
}

func (w *wire) lastErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return errors.New("server: connection closed")
}

// writeLoop is the connection's single writer: it batches queued frames
// into the buffered writer and flushes only when the queue is empty.
func (w *wire) writeLoop() {
	bw := bufio.NewWriter(w.conn)
	for {
		var buf []byte
		select {
		case buf = <-w.out:
		case <-w.done:
			return
		}
		if _, err := bw.Write(buf); err != nil {
			w.fail(fmt.Errorf("server: send: %w", err))
			return
		}
		if len(w.out) == 0 {
			if err := bw.Flush(); err != nil {
				w.fail(fmt.Errorf("server: send: %w", err))
				return
			}
		}
	}
}

// readLoop decodes response frames and completes calls by request ID.
func (w *wire) readLoop(br *bufio.Reader) {
	for {
		h, err := readFrameHeader(br)
		if err != nil {
			w.fail(fmt.Errorf("server: recv: %w", err))
			return
		}
		if h.typ != frameResp || h.n > clientMaxFrame {
			w.fail(fmt.Errorf("server: recv: %w: type 0x%02x, %d bytes", errFraming, h.typ, h.n))
			return
		}
		payload := make([]byte, h.n)
		if _, err := io.ReadFull(br, payload); err != nil {
			w.fail(fmt.Errorf("server: recv: %w", err))
			return
		}
		var resp Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			w.fail(fmt.Errorf("server: recv: malformed response: %w", err))
			return
		}
		w.mu.Lock()
		call := w.inflight[h.id]
		delete(w.inflight, h.id)
		w.mu.Unlock()
		if call != nil {
			call.complete(&resp, respError(&resp))
		}
	}
}
