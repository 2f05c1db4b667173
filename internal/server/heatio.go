package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"rnnheatmap/heatmap"
)

// The point answers, /heat and /heat/batch, are read and written without
// reflection. A batch body in its canonical form, {"points":[{"x":n,"y":n},
// ...]} with JSON whitespace between the tokens, is scanned directly
// (scanBatch); every other body goes to the json.Decoder the handler has
// always used, over the same bytes, so the accepted language and every
// error stay encoding/json's. Answers are appended as encoding/json writes
// heatResponse (appendHeat), except that an answer with a non-finite heat,
// which encoding/json refuses, still goes through writeJSON.

// maxBatchBody caps the bytes of a POST /heat/batch body.
const maxBatchBody = 8 << 20

// pointIO is a point handler's pooled scratch: the request body, its points
// and the answer's bytes.
type pointIO struct {
	body bytes.Buffer
	pts  []heatmap.Point
	out  []byte
}

var pointIOs = sync.Pool{New: func() any { return new(pointIO) }}

// maxPooledIO is the largest body or answer whose buffers a pointIO keeps
// for the next request.
const maxPooledIO = 1 << 20

// release returns pio to the pool, unless a large request grew it.
func (pio *pointIO) release() {
	if pio.body.Cap() > maxPooledIO || cap(pio.out) > maxPooledIO {
		return
	}
	pio.body.Reset()
	pio.pts, pio.out = pio.pts[:0], pio.out[:0]
	pointIOs.Put(pio)
}

// readBatch returns the points of a POST /heat/batch body, or the error the
// json.Decoder reports for it.
func (pio *pointIO) readBatch(w http.ResponseWriter, r *http.Request) ([]heatmap.Point, error) {
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	// Reading no more than the limit never trips the MaxBytesReader: a
	// longer body, or a read error, is left for the decoder to meet after
	// the same bytes, where a streaming decode would have met it.
	_, _ = pio.body.ReadFrom(io.LimitReader(body, maxBatchBody))
	if ps, ok := scanBatch(pio.body.Bytes(), pio.pts[:0]); ok {
		pio.pts = ps
		return ps, nil
	}
	var req batchRequest
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(pio.body.Bytes()), body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	pio.pts = pio.pts[:0]
	for _, p := range req.Points {
		pio.pts = append(pio.pts, heatmap.Pt(p.X, p.Y))
	}
	return pio.pts, nil
}

// scanBatch appends to ps the points of a canonical batch body and reports
// whether b is one: {"points":[...]} whose every element is {"x":n,"y":n},
// with JSON whitespace around every token and nothing after the object.
// Each n follows the JSON number grammar and goes through the
// strconv.ParseFloat call encoding/json makes; a number it rejects (out of
// range) makes the body non-canonical.
func scanBatch(b []byte, ps []heatmap.Point) ([]heatmap.Point, bool) {
	s := batchScanner{b: b}
	if !s.token(`{`) || !s.token(`"points"`) || !s.token(`:`) || !s.token(`[`) {
		return nil, false
	}
	if !s.token(`]`) {
		for {
			if !s.token(`{`) || !s.token(`"x"`) || !s.token(`:`) {
				return nil, false
			}
			x, ok := s.number()
			if !ok || !s.token(`,`) || !s.token(`"y"`) || !s.token(`:`) {
				return nil, false
			}
			y, ok := s.number()
			if !ok || !s.token(`}`) {
				return nil, false
			}
			ps = append(ps, heatmap.Pt(x, y))
			if !s.token(`,`) {
				break
			}
		}
		if !s.token(`]`) {
			return nil, false
		}
	}
	if !s.token(`}`) {
		return nil, false
	}
	s.space()
	return ps, s.i == len(s.b)
}

// batchScanner is scanBatch's position in the body.
type batchScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *batchScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token skips whitespace and then tok, a structural character or a key,
// reporting whether tok is next.
func (s *batchScanner) token(tok string) bool {
	s.space()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// number skips whitespace and scans one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning its value and
// false when the next bytes are no number or ParseFloat rejects it.
func (s *batchScanner) number() (float64, bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return v, err == nil
}

// digits skips decimal digits and returns how many.
func (s *batchScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// appendHeat appends one point answer as encoding/json encodes
// heatResponse: {"x":..,"y":..,"heat":..,"rnn":[..]}, an empty set as [].
func appendHeat(b []byte, x, y, heat float64, rnn []int) []byte {
	b = append(b, `{"x":`...)
	b = appendFloat(b, x)
	b = append(b, `,"y":`...)
	b = appendFloat(b, y)
	b = append(b, `,"heat":`...)
	b = appendFloat(b, heat)
	b = append(b, `,"rnn":[`...)
	for i, c := range rnn {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return append(b, "]}"...)
}

// appendFloat appends a finite f as encoding/json encodes a float64: the
// shortest decimal that round-trips, in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 (magnitudes), with a negative exponent's leading zero
// dropped (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// finite reports whether every heat is finite, so appendHeat can write it.
func finite(heats ...float64) bool {
	for _, h := range heats {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return false
		}
	}
	return true
}

// writeAnswer writes the appended JSON answer in pio.out as writeJSON writes
// a value: the content type, 200 and the bytes with a newline, in one write.
func (pio *pointIO) writeAnswer(w http.ResponseWriter) {
	pio.out = append(pio.out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(pio.out)
}
