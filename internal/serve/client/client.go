// Package client is the prefetchd wire client: a lockstep
// request/response loop over the newline-JSONL protocol with the retry
// discipline the daemon's exactly-once semantics assume — reconnect with
// exponential backoff plus deterministic jitter, resend the in-flight
// access under the same seq (the server's replay cache absorbs
// duplicates), honour explicit busy backpressure, and surface a typed
// rewind when a restarted daemon lost trained tail state so the driver
// can replay its stream from the server's high-water mark.
package client

import (
	"fmt"
	"net"
	"time"

	"semloc/internal/obs"
	"semloc/internal/serve"
)

// Client-side metric names, registered when Config.Reg is set. The RTT
// histogram observes one sample per decision — without a schedule, the
// successful exchange of its chunk (request written → matching reply
// read, including any in-exchange busy waits); for DecideBatch with a
// schedule, each access's latency from its own intended send time, which
// corrects for coordinated omission instead of letting batching hide
// queueing delay.
const (
	MetricClientRTT        = "client_rtt_seconds"
	MetricClientRetries    = "client_retries_total"
	MetricClientReconnects = "client_reconnects_total"
	MetricClientBusy       = "client_busy_total"
)

// Config parameterizes a Client. Addr and Session are required.
type Config struct {
	// Addr returns the daemon address to dial. A plain address is wrapped
	// via FixedAddr; a func lets chaos tests repoint at a restarted
	// daemon without the client noticing.
	Addr func() string
	// Session names the server-side session to create or re-attach.
	Session string

	// DialTimeout bounds one connect attempt; RequestTimeout bounds the
	// wait for one decision before the request is retried.
	DialTimeout    time.Duration
	RequestTimeout time.Duration

	// MaxBatch, when positive, asks the daemon at hello for batched
	// decisions of up to this size (clamped to serve.MaxBatch). The
	// granted size is Batch(); 0 keeps the legacy frame-at-a-time
	// protocol, and DecideBatch sends one access frame per access to
	// daemons that grant 0.
	MaxBatch int

	// MaxAttempts bounds connect/request retries before giving up.
	MaxAttempts int
	// BackoffBase doubles per consecutive failure up to BackoffMax, with
	// up to 50% deterministic jitter on top.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter RNG (deterministic tests).
	Seed uint64

	// Reg, when set, receives the client_* metrics (RTT histogram plus
	// retry/reconnect/busy counters). Nil is the disabled configuration:
	// no metric handles, no clock reads on the request path.
	Reg *obs.Registry

	Logf func(format string, args ...any)
}

// FixedAddr adapts a constant address for Config.Addr.
func FixedAddr(addr string) func() string { return func() string { return addr } }

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// RewindError reports that a restarted daemon's session is behind the
// client's stream: the daemon restored a snapshot whose last applied seq
// is ServerSeq, older than the access being sent. The driver owns the
// stream, so it replays everything after ServerSeq — the restored learner
// then retrains those accesses from exactly the state it saw them from,
// keeping it bit-identical to a never-killed learner.
type RewindError struct {
	ServerSeq uint64
}

func (e *RewindError) Error() string {
	return fmt.Sprintf("client: server rewound to seq %d; replay the stream from there", e.ServerSeq)
}

// Client is a lockstep prefetchd client. Not goroutine-safe: one client,
// one stream.
type Client struct {
	cfg  Config
	conn net.Conn
	r    *serve.FrameReader

	serverSeq uint64 // last seq the server reported applied (welcome)
	resumed   bool   // last welcome's Resumed flag
	batch     int    // batch size granted at the last welcome (0: unbatched)
	failures  int    // consecutive transport failures, drives backoff
	rng       uint64

	// Reused buffers: enc holds the last encoded request (kept intact for
	// same-bytes resends after busy), resp receives replies in place, one
	// holds a decision reply as a result, out accumulates multi-chunk
	// DecideBatch results.
	enc  []byte
	resp serve.Frame
	one  [1]serve.BatchDecision
	out  []serve.BatchDecision

	// Retries / Reconnects / Busy count retried sends, re-dials and busy
	// bounces — chaos tests assert the faults were actually exercised.
	Retries    int
	Reconnects int
	Busy       int

	// Metric handles (nil when Config.Reg is nil; every method is a no-op
	// then, and rtt==nil additionally gates the clock reads).
	rtt         *obs.Histogram
	retriesC    *obs.Counter
	reconnectsC *obs.Counter
	busyC       *obs.Counter
}

// Dial connects and performs the hello/welcome handshake, retrying with
// backoff like any other request (the very first exchange can be hit by
// the same faults as the rest of the stream).
func Dial(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == nil || cfg.Session == "" {
		return nil, fmt.Errorf("client: Addr and Session are required")
	}
	c := &Client{cfg: cfg, rng: cfg.Seed}
	if cfg.Reg != nil {
		c.rtt = cfg.Reg.Histogram(MetricClientRTT, "client-observed seconds per successful access/decision exchange", obs.DefaultLatencyBuckets)
		c.retriesC = cfg.Reg.Counter(MetricClientRetries, "requests retried after a transport fault")
		c.reconnectsC = cfg.Reg.Counter(MetricClientReconnects, "re-dials (successful or not) after a lost connection")
		c.busyC = cfg.Reg.Counter(MetricClientBusy, "busy bounces honoured with the server's retry hint")
	}
	var err error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if err = c.connect(); err == nil {
			return c, nil
		}
		c.failures++
		c.backoff()
	}
	return nil, fmt.Errorf("client: dial gave up after %d attempts: %w", cfg.MaxAttempts, err)
}

// ServerSeq returns the server's last applied seq as of the most recent
// welcome.
func (c *Client) ServerSeq() uint64 { return c.serverSeq }

// Resumed reports whether the most recent welcome re-attached an
// existing session.
func (c *Client) Resumed() bool { return c.resumed }

// Batch returns the batch size the daemon granted at the most recent
// welcome (0: frame-at-a-time protocol). It can change across
// reconnects — a restarted daemon may cap batching differently.
func (c *Client) Batch() int { return c.batch }

// connect dials and handshakes once.
func (c *Client) connect() error {
	c.drop()
	conn, err := net.DialTimeout("tcp", c.cfg.Addr(), c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial: %w", err)
	}
	ask := c.cfg.MaxBatch
	if ask < 0 {
		ask = 0
	}
	if ask > serve.MaxBatch {
		ask = serve.MaxBatch
	}
	w := &serve.Frame{Type: serve.FrameHello, Version: serve.ProtocolVersion, Session: c.cfg.Session, Batch: ask}
	b, err := serve.AppendFrame(c.enc[:0], w)
	if err != nil {
		conn.Close()
		return err
	}
	c.enc = b
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if _, err := conn.Write(b); err != nil {
		conn.Close()
		return fmt.Errorf("client: sending hello: %w", err)
	}
	r := serve.NewFrameReader(conn)
	fr, err := r.Read()
	if err != nil {
		conn.Close()
		return fmt.Errorf("client: reading welcome: %w", err)
	}
	if fr.Type != serve.FrameWelcome {
		conn.Close()
		return fmt.Errorf("client: handshake refused: %s (%s: %s)", fr.Type, fr.Code, fr.Msg)
	}
	conn.SetDeadline(time.Time{})
	c.conn, c.r = conn, r
	c.serverSeq, c.resumed = fr.LastSeq, fr.Resumed
	granted := fr.Batch
	if granted > ask {
		granted = ask
	}
	if granted < 0 {
		granted = 0
	}
	c.batch = granted
	return nil
}

// send encodes f into the client's reused buffer and writes it under the
// given deadline. The encoded bytes stay intact (for a same-bytes resend
// after a busy bounce) until the next send.
func (c *Client) send(f *serve.Frame, timeout time.Duration) error {
	b, err := serve.AppendFrame(c.enc[:0], f)
	if err != nil {
		return err
	}
	c.enc = b
	c.conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := c.conn.Write(b); err != nil {
		return fmt.Errorf("client: send: %w", err)
	}
	return nil
}

// resend rewrites the bytes of the last send (same seq, same payload).
func (c *Client) resend(timeout time.Duration) error {
	c.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := c.conn.Write(c.enc)
	return err
}

func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

// backoff sleeps the exponential-plus-jitter delay for the current
// consecutive-failure count.
func (c *Client) backoff() {
	d := c.cfg.BackoffBase << uint(min(c.failures, 16))
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// splitmix64 step for deterministic jitter in [0, d/2).
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	time.Sleep(d + time.Duration(z%uint64(d/2+1)))
}

// Decide streams one access frame as a batch of one and returns its
// decision frame, which is the caller's to keep. Retry semantics are
// DecideBatch's.
func (c *Client) Decide(fr *serve.Frame) (*serve.Frame, error) {
	if fr.Type != serve.FrameAccess {
		return nil, fmt.Errorf("client: Decide wants an access frame, got %s", fr.Type)
	}
	res, err := c.DecideBatch([]serve.BatchAccess{fr.Access()}, nil)
	if err != nil {
		return nil, err
	}
	d := res[0]
	return &serve.Frame{Type: serve.FrameDecision, Seq: d.Seq,
		Prefetch: append([]uint64(nil), d.Prefetch...), Shadow: append([]uint64(nil), d.Shadow...),
		Degraded: d.Degraded, Replayed: d.Replayed}, nil
}

// DecideBatch streams the accesses (contiguous ascending seqs, like one
// batch frame) and returns their decisions in order, riding out transport
// faults. The request is chunked to the batch size granted at hello; a
// chunk of one travels as an access frame, so against a daemon that
// granted no batching every access does, and callers can use DecideBatch
// unconditionally. Duplicate or delayed replies for other chunks are
// skipped, busy frames honour the server's retry hint, broken connections
// reconnect with backoff and resend the whole chunk under the same seqs
// (the server's replay ring absorbs the already-applied prefix as
// Replayed decisions), and a restarted daemon behind the chunk about to
// be sent returns *RewindError.
//
// The returned slice and its payloads alias client-owned buffers that
// stay valid only until the next Decide/DecideBatch call — callers copy
// what they keep.
//
// sched, when non-nil (must match len(accs)), carries each access's
// intended send time; the RTT histogram then records one sample per
// decision measured from that schedule — coordinated-omission-corrected,
// so batching cannot hide queueing delay. With a nil sched each decision
// still gets one sample, measured from its chunk's send.
func (c *Client) DecideBatch(accs []serve.BatchAccess, sched []time.Time) ([]serve.BatchDecision, error) {
	if len(accs) == 0 {
		return nil, nil
	}
	if sched != nil && len(sched) != len(accs) {
		return nil, fmt.Errorf("client: DecideBatch: %d accesses but %d schedule entries", len(accs), len(sched))
	}
	if accs[0].Seq == 0 {
		return nil, fmt.Errorf("client: DecideBatch: zero seq")
	}
	for k := 1; k < len(accs); k++ {
		if accs[k].Seq != accs[0].Seq+uint64(k) {
			return nil, fmt.Errorf("client: DecideBatch: seqs must be contiguous ascending (index %d has %d, want %d)",
				k, accs[k].Seq, accs[0].Seq+uint64(k))
		}
	}
	c.out = c.out[:0]
	var lastErr error
	attempt := 0
	for i := 0; i < len(accs); {
		if attempt >= c.cfg.MaxAttempts {
			return nil, fmt.Errorf("client: seq %d: giving up after %d attempts: %w", accs[i].Seq, c.cfg.MaxAttempts, lastErr)
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				lastErr = err
				attempt++
				c.failures++
				c.Reconnects++
				c.reconnectsC.Inc()
				c.cfg.Logf("client: reconnect failed (attempt %d): %v", attempt, err)
				c.backoff()
				continue
			}
			c.Reconnects++
			c.reconnectsC.Inc()
			// A restarted server may have restored an older snapshot: its
			// session is behind our stream and sending this chunk now
			// would silently skip the gap. Hand control to the driver.
			if c.serverSeq+1 < accs[i].Seq {
				return nil, &RewindError{ServerSeq: c.serverSeq}
			}
			// The granted batch size may have changed across the
			// reconnect; the chunking below re-reads it every iteration.
		}
		k := min(max(c.batch, 1), len(accs)-i)
		chunk := accs[i : i+k]
		var start time.Time
		if c.rtt != nil && sched == nil {
			start = time.Now()
		}
		res, err := c.exchange(chunk)
		if err != nil {
			lastErr = err
			attempt++
			c.failures++
			c.Retries++
			c.retriesC.Inc()
			c.cfg.Logf("client: seq %d+%d failed (attempt %d): %v", chunk[0].Seq, k, attempt, err)
			c.drop()
			c.backoff()
			continue
		}
		c.failures = 0
		attempt = 0
		if c.rtt != nil {
			if sched != nil {
				for j := 0; j < k; j++ {
					c.rtt.Observe(time.Since(sched[i+j]).Seconds())
				}
			} else {
				el := time.Since(start).Seconds()
				for j := 0; j < k; j++ {
					c.rtt.Observe(el)
				}
			}
		}
		if i == 0 && k == len(accs) {
			// Single chunk: hand back the reply frame's results directly
			// (valid until the next call) — the steady-state zero-copy path.
			return res, nil
		}
		if i+k == len(accs) {
			// Final chunk: the reply frame stays untouched until the next
			// call, so shallow headers are safe.
			c.out = append(c.out, res...)
		} else {
			// Earlier chunks: the reply frame's buffers are recycled by
			// the next chunk's read, so deep-copy.
			for j := range res {
				d := res[j]
				d.Prefetch = append([]uint64(nil), d.Prefetch...)
				d.Shadow = append([]uint64(nil), d.Shadow...)
				c.out = append(c.out, d)
			}
		}
		i += k
	}
	return c.out, nil
}

// exchange sends one chunk — a lone access as an access frame, more as a
// batch frame — and reads until its answer arrives, decoding replies into
// the client's reused frame. A decision reply is matched by seq, a batch
// reply by first seq and length; delayed or duplicated replies for other
// requests are skipped. Busy bounces are resent on the same connection
// after the server's hinted wait; only transport faults and session
// errors bubble up to the reconnect path. A stale-seq answer means this
// client's stream fell further behind the replay window than one chunk —
// unrecoverable.
func (c *Client) exchange(chunk []serve.BatchAccess) ([]serve.BatchDecision, error) {
	first, n := chunk[0].Seq, uint64(len(chunk))
	req := serve.Frame{Type: serve.FrameBatch, Accesses: chunk}
	if n == 1 {
		a := &chunk[0]
		req = serve.Frame{Type: serve.FrameAccess, Seq: a.Seq, PC: a.PC, Addr: a.Addr, Value: a.Value,
			Reg: a.Reg, BranchHist: a.BranchHist, Store: a.Store, Hints: a.Hints}
	}
	if err := c.send(&req, c.cfg.RequestTimeout); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	busyN := 0
	for {
		c.conn.SetReadDeadline(deadline)
		if err := c.r.ReadInto(&c.resp); err != nil {
			return nil, fmt.Errorf("client: recv: %w", err)
		}
		got := &c.resp
		switch got.Type {
		case serve.FrameDecision:
			if n != 1 || got.Seq != first {
				continue
			}
			c.one[0] = serve.BatchDecision{Seq: got.Seq, Prefetch: got.Prefetch, Shadow: got.Shadow,
				Degraded: got.Degraded, Replayed: got.Replayed}
			return c.one[:], nil
		case serve.FrameBatch:
			if uint64(len(got.Results)) != n || got.Results[0].Seq != first {
				continue
			}
			for j := range got.Results {
				if code := got.Results[j].Code; code != "" {
					return nil, fmt.Errorf("client: seq %d %s on server", got.Results[j].Seq, code)
				}
			}
			return got.Results, nil
		case serve.FramePong:
			// Keepalive noise.
		case serve.FrameBusy:
			if got.Seq != 0 && got.Seq != first {
				continue
			}
			c.Busy++
			c.busyC.Inc()
			if busyN++; busyN > c.cfg.MaxAttempts {
				return nil, fmt.Errorf("client: server busy %d times for seq %d", busyN, first)
			}
			wait := time.Duration(got.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = c.cfg.BackoffBase
			}
			time.Sleep(wait)
			if err := c.resend(c.cfg.RequestTimeout); err != nil {
				return nil, fmt.Errorf("client: resend after busy: %w", err)
			}
			deadline = time.Now().Add(c.cfg.RequestTimeout)
		case serve.FrameError:
			switch got.Code {
			case serve.CodeSessionClosed, serve.CodeShuttingDown:
				// Reconnect (fresh hello revives or recreates the session)
				// and resend.
				return nil, fmt.Errorf("client: %s: %s", got.Code, got.Msg)
			case serve.CodeStaleSeq:
				if got.Seq != 0 && (got.Seq < first || got.Seq >= first+n) {
					continue // stale answer to a duplicated old frame
				}
				return nil, fmt.Errorf("client: seq %d stale on server: %s", first, got.Msg)
			default:
				return nil, fmt.Errorf("client: server error %s: %s", got.Code, got.Msg)
			}
		default:
			return nil, fmt.Errorf("client: unexpected %s frame mid-stream", got.Type)
		}
	}
}

// Stats fetches the server-side serving statistics for this client's
// session (decisions, degraded fallbacks, replays, inbox high-water).
// Lockstep: call it between Decide exchanges, not concurrently.
func (c *Client) Stats() (*serve.SessionStats, error) {
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
	}
	if err := c.send(&serve.Frame{Type: serve.FrameStats}, c.cfg.RequestTimeout); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	for {
		c.conn.SetReadDeadline(deadline)
		got, err := c.r.Read()
		if err != nil {
			return nil, err
		}
		switch got.Type {
		case serve.FrameStats:
			if got.Stats == nil {
				return nil, fmt.Errorf("client: stats reply without payload")
			}
			return got.Stats, nil
		case serve.FrameDecision, serve.FramePong:
			// Late answers to earlier traffic (duplicated by a chaos
			// proxy): skip.
		case serve.FrameError:
			return nil, fmt.Errorf("client: stats: server error %s: %s", got.Code, got.Msg)
		default:
			return nil, fmt.Errorf("client: stats answered with %s", got.Type)
		}
	}
}

// Explain fetches the live learner-introspection report for this
// client's session: the learner-health snapshot plus the topK hottest
// contexts with their candidate score tables (topK 0 takes the server
// default, serve.DefaultExplainContexts). Lockstep like Stats: call it
// between Decide exchanges, not concurrently.
func (c *Client) Explain(topK int) (*serve.ExplainReport, error) {
	if topK < 0 || topK > serve.MaxExplainContexts {
		return nil, fmt.Errorf("client: explain topK %d out of range [0,%d]", topK, serve.MaxExplainContexts)
	}
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
	}
	if err := c.send(&serve.Frame{Type: serve.FrameExplain, TopK: topK}, c.cfg.RequestTimeout); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	for {
		c.conn.SetReadDeadline(deadline)
		got, err := c.r.Read()
		if err != nil {
			return nil, err
		}
		switch got.Type {
		case serve.FrameExplain:
			if got.Explain == nil {
				return nil, fmt.Errorf("client: explain reply without payload")
			}
			return got.Explain, nil
		case serve.FrameDecision, serve.FramePong:
			// Late answers to earlier traffic (duplicated by a chaos
			// proxy): skip.
		case serve.FrameError:
			return nil, fmt.Errorf("client: explain: server error %s: %s", got.Code, got.Msg)
		default:
			return nil, fmt.Errorf("client: explain answered with %s", got.Type)
		}
	}
}

// Close detaches politely (bye) and closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	c.send(&serve.Frame{Type: serve.FrameBye}, time.Second)
	err := c.conn.Close()
	c.conn, c.r = nil, nil
	return err
}
