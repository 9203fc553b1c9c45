package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/systolic/serve"
)

// spanHeader carries "<request id>/<client span id>" from a traced client
// to the handler wrapper, so the serve-side span joins the request.
const spanHeader = "X-Perfbench-Span"

// server is a fresh in-process gossipd: the serve package's handler behind
// net/http on a loopback listener, with one closed-loop client that keeps
// a single keep-alive connection to it (the transport of cmd/gossipd).
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	tr     *http.Transport
	client *http.Client
	buf    bytes.Buffer
}

// startServer starts a server with default configuration, wrapping its
// handler with wrap when non-nil, and opens the client's connection.
func startServer(wrap func(http.Handler) http.Handler) (*server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		done:   make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		tr:     tr,
		client: &http.Client{Transport: tr},
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	if _, _, _, err := s.do(http.MethodGet, "/healthz", nil, ""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// do sends one request and returns the status, the reply headers and the
// reply body. The body aliases a buffer the next call reuses.
func (s *server) do(method, path string, body []byte, spanID string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if spanID != "" {
		req.Header.Set(spanHeader, spanID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, resp.Header, s.buf.Bytes(), nil
}

// close shuts the listener and the connection down, waits for the serve
// loop to exit, and cancels anything the server still runs.
func (s *server) close() {
	s.tr.CloseIdleConnections()
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// spanID renders the header value for a client span.
func spanID(req, parent int) string { return strconv.Itoa(req) + "/" + strconv.Itoa(parent) }

// traceHandler wraps the serve handler with a span per traced request:
// requests that carry spanHeader get a serve.handler span parented to the
// client's span; others pass straight through.
func traceHandler(rec *recorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v := r.Header.Get(spanHeader)
			if v == "" {
				next.ServeHTTP(w, r)
				return
			}
			reqS, parentS, _ := strings.Cut(v, "/")
			req, _ := strconv.Atoi(reqS)
			parent, _ := strconv.Atoi(parentS)
			id := rec.begin(req, parent, "serve.handler")
			next.ServeHTTP(w, r)
			rec.end(id)
		})
	}
}
