package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// generator is the load generator's shared half: one keep-alive
// transport for every episode of a run, byte counters on its
// connections, and the semaphore that caps runnable generator work at
// the core count.
type generator struct {
	transport *http.Transport
	// sem is held from just before an upload's first body byte until
	// its last is written. POST /v1/round parks each accepted upload on
	// its connection until the round resolves, so a round of K vehicles
	// holds K connections whatever this cap is; it only bounds how many
	// of them are being written at once.
	sem chan struct{}
	// read and written count every byte on the generator's connections,
	// HTTP framing included.
	read, written atomic.Int64
}

func newGenerator(fleet int) *generator {
	g := &generator{sem: make(chan struct{}, runtime.NumCPU())}
	dialer := &net.Dialer{}
	g.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countedConn{Conn: c, g: g}, nil
		},
		// Every vehicle keeps its connection across rounds; the spare
		// slots serve the controller's unlearn, model and status calls.
		MaxIdleConns:        fleet + 4,
		MaxIdleConnsPerHost: fleet + 4,
		DisableCompression:  true,
	}
	return g
}

// wireBytes is the running total of bytes both ways.
func (g *generator) wireBytes() int64 { return g.read.Load() + g.written.Load() }

type countedConn struct {
	net.Conn
	g *generator
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.g.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.g.written.Add(int64(n))
	return n, err
}

// uploadSample is one POST /v1/round as the generator saw it, timed
// with the monotonic clock.
type uploadSample struct {
	start, end time.Time
	committed  bool
}

// recorder is one episode's view of the generator: an
// http.RoundTripper every vehicle and the controller share, which
// times requests, checks replies and records spans.
type recorder struct {
	g  *generator
	tr *tracer
	// parent is the span the episode is currently inside.
	parent atomic.Int64

	mu        sync.Mutex
	uploads   []uploadSample
	requests  map[string]int
	attempted int
	failed    int
	errs      []string
}

func newRecorder(g *generator, tr *tracer) *recorder {
	return &recorder{g: g, tr: tr, requests: make(map[string]int)}
}

func (r *recorder) client() *http.Client { return &http.Client{Transport: r} }

// uploadCount is how many uploads have completed so far.
func (r *recorder) uploadCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.uploads)
}

// fail counts one failed operation; the first few messages are kept
// for the report.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and its outcome.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.fail(format, args...)
	}
}

// classify names a request by the route it targets.
func classify(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/round":
		return "upload"
	case req.Method == http.MethodPost && p == "/v1/unlearn":
		return "unlearn"
	case strings.HasPrefix(p, "/v1/unlearn/"):
		return "unlearn_status"
	case strings.HasPrefix(p, "/v1/model/"):
		return "model"
	case p == "/v1/status":
		return "status"
	default:
		return "other"
	}
}

// RoundTrip implements http.RoundTripper.
func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	class := classify(req)
	release := func() {}
	if class == "upload" && req.Body != nil {
		r.g.sem <- struct{}{}
		var once sync.Once
		release = func() { once.Do(func() { <-r.g.sem }) }
		// A RoundTripper must not modify the caller's request.
		clone := *req
		clone.Body = &sentBody{ReadCloser: req.Body, sent: release}
		req = &clone
	}
	start := time.Now()
	resp, err := r.g.transport.RoundTrip(req)
	release()
	if err != nil {
		r.finish(class, start, 0, nil, err)
		return nil, err
	}
	resp.Body = &replyBody{ReadCloser: resp.Body, keep: class == "upload", done: func(head []byte) {
		r.finish(class, start, resp.StatusCode, head, nil)
	}}
	return resp, nil
}

// finish records one completed request: when its reply has been read
// to the end (or abandoned), or when the transport failed.
func (r *recorder) finish(class string, start time.Time, status int, head []byte, err error) {
	end := time.Now()
	ok := err == nil && status >= 200 && status < 300
	committed := false
	round := -1
	if class == "upload" && ok {
		var reply struct {
			Round     int  `json:"round"`
			Committed bool `json:"committed"`
		}
		if json.Unmarshal(head, &reply) == nil {
			committed, round = reply.Committed, reply.Round
		}
		ok = committed
	}
	r.mu.Lock()
	r.attempted++
	r.requests[class]++
	if class == "upload" {
		r.uploads = append(r.uploads, uploadSample{start: start, end: end, committed: committed})
	}
	r.mu.Unlock()
	if !ok {
		switch {
		case err != nil:
			r.fail("%s: %v", class, err)
		default:
			r.fail("%s: status %d, reply %q", class, status, head)
		}
	}
	r.tr.add("gen."+class, r.parent.Load(), round, start, end)
}

// sentBody signals once the transport has read the request body to
// its end, i.e. the last byte is on its way to the socket.
type sentBody struct {
	io.ReadCloser
	sent func()
}

func (b *sentBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.sent()
	}
	return n, err
}

func (b *sentBody) Close() error {
	b.sent()
	return b.ReadCloser.Close()
}

// replyBody reports when the caller has finished with a reply, keeping
// the first bytes of small JSON replies for the commit check.
type replyBody struct {
	io.ReadCloser
	keep bool
	head bytes.Buffer
	once sync.Once
	done func(head []byte)
}

func (b *replyBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep && b.head.Len() < 512 {
		b.head.Write(p[:n])
	}
	if err != nil {
		b.once.Do(func() { b.done(b.head.Bytes()) })
	}
	return n, err
}

func (b *replyBody) Close() error {
	b.once.Do(func() { b.done(b.head.Bytes()) })
	return b.ReadCloser.Close()
}

// pacer lets open-ended vehicles (unlearn_overlap) stop on a common
// round: a barrier round only resolves once every scheduled vehicle
// has uploaded, so no vehicle may start a round another will skip.
type pacer struct {
	mu         sync.Mutex
	maxStarted int
	stopAt     int // −1 while running
}

func newPacer(first int) *pacer { return &pacer{maxStarted: first - 1, stopAt: -1} }

// admit reports whether a vehicle may start round t.
func (p *pacer) admit(t int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopAt >= 0 && t > p.stopAt {
		return false
	}
	p.maxStarted = max(p.maxStarted, t)
	return true
}

// stop makes the furthest round any vehicle has started the last one.
func (p *pacer) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopAt = max(p.maxStarted, 0)
}

// drive runs one synthetic vehicle as a closed loop: round t+1 is sent
// only after round t's reply. It uploads rounds [from, to), or until
// the pacer stops it when to < 0. busy accumulates the loop's own work
// (frame patching, request set-up), the generator's CPU share.
func drive(ctx context.Context, hc *http.Client, base string, v *synthVehicle, from, to int, think time.Duration, p *pacer, busy *atomic.Int64) error {
	for t := from; to < 0 || t < to; t++ {
		if p != nil && !p.admit(t) {
			return nil
		}
		if think > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(think):
			}
		}
		b0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/round", bytes.NewReader(v.frameFor(t)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-fuiov-upload")
		busy.Add(int64(time.Since(b0)))
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("vehicle %d round %d: %s", v.id, t, resp.Status)
		}
	}
	return nil
}
