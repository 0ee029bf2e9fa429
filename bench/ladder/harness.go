package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wire"
)

// countingListener meters the bytes its connections read — how the ladder
// sees what a coordinator really ships to a shard, whatever the protocol
// becomes.
type countingListener struct {
	net.Listener
	read *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// hosted is one in-process convoyd on a real loopback TCP listener.
type hosted struct {
	Base string
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	// BytesIn counts every byte read from accepted connections.
	BytesIn atomic.Int64
}

// host serves srv on 127.0.0.1:0 — a real listener and net/http server,
// not an httptest recorder, so requests pay the socket, the HTTP parser
// and the scheduler hand-off a deployed convoyd pays.
func host(srv *serve.Server) (*hosted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &hosted{Base: "http://" + ln.Addr().String(), srv: srv, done: make(chan struct{})}
	h.hs = &http.Server{Handler: srv}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(countingListener{ln, &h.BytesIn}) // always ErrServerClosed after stop
	}()
	return h, nil
}

// stop shuts the listener, waits for the accept loop and drains the server.
func (h *hosted) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns an HTTP client holding one keep-alive connection: each
// load generator owns one, so a workload never has more connections than
// generators.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// call sends one request and decodes a 2xx JSON answer into out (nil
// discards the body). Any other status is an error carrying the body.
func call(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on the benchmark's own plain structs
	}
	return b
}

// canon renders a convoy answer as a sorted list of "start-end|a,b,c"
// keys (members sorted), the form every correctness comparison uses: two
// answers are the same convoy set iff their canon lists are equal.
func canon(cs []wire.ConvoyJSON) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		objs := append([]string(nil), c.Objects...)
		sort.Strings(objs)
		out[i] = fmt.Sprintf("%d-%d|%s", c.Start, c.End, strings.Join(objs, ","))
	}
	sort.Strings(out)
	return out
}

// reference mines db by the independent route every timed answer is held
// to: the library's serial CMC with incremental clustering off, so neither
// the server, the CuTS filter, the incremental engine nor the partition
// merge is on the reference's path.
func reference(db *model.DB, p core.Params) ([]wire.ConvoyJSON, error) {
	res, err := core.NewQuery(core.WithParams(p), core.WithCMC(), core.WithIncremental(-1)).Run(context.Background(), db)
	if err != nil {
		return nil, err
	}
	labels := wire.DBLabels(db)
	out := make([]wire.ConvoyJSON, len(res))
	for i, c := range res {
		out[i] = wire.ConvoyToJSON(c, labels)
	}
	return out, nil
}
