package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"github.com/unify-repro/escape/internal/nffg"
)

// The one body reader of both sides of the wire. Every JSON body — an
// install request on the server; a view, receipt, job, event or error
// envelope on the client — is read once into a pooled buffer, decoded from
// it in one json.Unmarshal pass, and the buffer goes back to the pool. Reuse
// is safe because encoding/json copies every string out of its input, so no
// decoded value points into the buffer. Data after the JSON value is a
// decode error (a 400 on the server).

// maxPooledBody is the largest buffer returned to the pool; a buffer a
// larger body grew is dropped, so one outsized body does not stay resident.
// It also caps how far a declared Content-Length grows a buffer before any
// byte arrives: the length is the peer's claim, not data received.
const maxPooledBody = 1 << 20

// maxErrorBody bounds how much of an error response remoteError reads.
const maxErrorBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r to its end into a pooled buffer and hands the bytes to
// decode, which must not keep them. size is the declared Content-Length
// (-1 if unknown): the buffer is grown to it first, so even a pool miss
// allocates the body once. It is a hint, capped at maxPooledBody.
func readBody(r io.Reader, size int64, decode func([]byte) error) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if size > 0 {
		// ReadFrom wants MinRead bytes free before it can see EOF.
		buf.Grow(int(min(size, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	if err == nil {
		err = decode(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	return err
}

// readGraph decodes a graph body with nffg.DecodeJSONBytes.
func readGraph(r io.Reader, size int64) (*nffg.NFFG, error) {
	var g *nffg.NFFG
	err := readBody(r, size, func(b []byte) (err error) {
		g, err = nffg.DecodeJSONBytes(b)
		return err
	})
	return g, err
}

// decodeJSONBody decodes a response body into out.
func decodeJSONBody(resp *http.Response, out any) error {
	return readBody(resp.Body, resp.ContentLength, func(b []byte) error { return json.Unmarshal(b, out) })
}
