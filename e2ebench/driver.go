package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// recorder is a minimal http.ResponseWriter: it keeps the status, and the
// body only when asked to, so unsampled tile bytes are not copied.
type recorder struct {
	header http.Header
	status int
	keep   bool
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if r.keep {
		r.body.Write(p)
	}
	return len(p), nil
}

// response is what one request returned, with its latency through
// ServeHTTP.
type response struct {
	status  int
	latency time.Duration
	body    []byte
}

func (r response) ok() bool { return r.status >= 200 && r.status < 300 }

// send drives one request through the handler in-process, timing only
// ServeHTTP: no sockets, no loopback stack.
func send(h http.Handler, rq *request) response {
	var body io.Reader = http.NoBody
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, rq.path, body)
	if err != nil {
		panic(err) // paths are generated by this program
	}
	rec := &recorder{header: make(http.Header), keep: rq.keep}
	start := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(start)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return response{status: rec.status, latency: lat, body: rec.body.Bytes()}
}

// runStreams replays each script on its own goroutine as a closed loop (a
// stream sends its next request only after the previous one returned) and
// returns the responses per stream plus the wall time from the common start
// to the last stream's end.
func runStreams(h http.Handler, scripts [][]*request) ([][]response, time.Duration) {
	out := make([][]response, len(scripts))
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	for i, script := range scripts {
		out[i] = make([]response, len(script))
		wg.Add(1)
		go func(i int, script []*request) {
			defer wg.Done()
			<-startGate
			for j, rq := range script {
				out[i][j] = send(h, rq)
			}
		}(i, script)
	}
	start := time.Now()
	close(startGate)
	wg.Wait()
	return out, time.Since(start)
}
