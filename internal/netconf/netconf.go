// Package netconf implements the NETCONF-style control channel of the
// Mininet domain: RFC-4741-shaped XML RPCs (hello with capability exchange,
// get-config, edit-config, named actions) framed with the classic "]]>]]>"
// end-of-message delimiter over TCP.
//
// The configuration payload is opaque XML at this layer; the ESCAPE domain
// adapter puts the nffg virtualizer rendering inside <config>/<data>, which
// is exactly how the paper's Yang-modelled virtualizer travels.
package netconf

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Delimiter terminates every NETCONF 1.0 frame.
const Delimiter = "]]>]]>"

// BaseCapability is always announced in hello.
const BaseCapability = "urn:ietf:params:xml:ns:netconf:base:1.0"

// maxFrame bounds one message (defensive).
const maxFrame = 8 << 20

// maxPooled bounds the buffer a pooled encoder or a session's frame reader
// keeps between messages; a larger one is left to the garbage collector, so
// one huge frame does not pin its memory for the life of the process.
const maxPooled = 64 << 10

// Errors of the framing and RPC layers.
var (
	ErrFrameTooLarge = errors.New("netconf: frame too large")
	ErrClosed        = errors.New("netconf: session closed")
	ErrRPC           = errors.New("netconf: rpc-error")
)

// frameReader reads one session's delimited frames into one reused buffer.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

// newFrameReader reads frames from r.
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// ReadFrame reads up to the next delimiter and returns the payload with
// surrounding white space trimmed. The payload lives in the reader's buffer:
// it is valid until the next ReadFrame, so a caller decodes it before reading
// on (the XML decoder copies what it keeps).
func (fr *frameReader) ReadFrame() ([]byte, error) {
	b := fr.buf[:0]
	for {
		// A delimiter ends on its last byte, so checking at every occurrence
		// of that byte finds it, even when it spans two chunks.
		chunk, err := fr.br.ReadSlice(Delimiter[len(Delimiter)-1])
		b = append(b, chunk...)
		if len(b) > maxFrame {
			return nil, ErrFrameTooLarge
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		if bytes.HasSuffix(b, []byte(Delimiter)) {
			break
		}
	}
	if cap(b) <= maxPooled {
		fr.buf = b
	} else {
		fr.buf = nil
	}
	return bytes.TrimSpace(b[:len(b)-len(Delimiter)]), nil
}

// Hello is the session-open message.
type Hello struct {
	XMLName      xml.Name `xml:"hello"`
	Capabilities []string `xml:"capabilities>capability"`
	SessionID    uint64   `xml:"session-id,omitempty"`
}

// RPC is a request envelope. Exactly one operation field is set.
type RPC struct {
	XMLName   xml.Name `xml:"rpc"`
	MessageID string   `xml:"message-id,attr"`

	GetConfig  *GetConfig  `xml:"get-config,omitempty"`
	EditConfig *EditConfig `xml:"edit-config,omitempty"`
	Action     *Action     `xml:"action,omitempty"`
	Close      *struct{}   `xml:"close-session,omitempty"`
}

// GetConfig requests the running datastore.
type GetConfig struct {
	Source string `xml:"source>datastore"`
}

// EditConfig replaces/merges configuration; Config carries opaque XML.
type EditConfig struct {
	Target string  `xml:"target>datastore"`
	Config RawBody `xml:"config"`
}

// Action is a named custom operation (NF lifecycle on the Mininet domain:
// "start-nf", "stop-nf", "connect-port", ...).
type Action struct {
	Name string  `xml:"name,attr"`
	Body RawBody `xml:"body"`
}

// RawBody preserves inner XML verbatim.
type RawBody struct {
	Inner []byte `xml:",innerxml"`
}

// Reply is the response envelope.
type Reply struct {
	XMLName   xml.Name  `xml:"rpc-reply"`
	MessageID string    `xml:"message-id,attr"`
	OK        *struct{} `xml:"ok,omitempty"`
	Data      *RawBody  `xml:"data,omitempty"`
	Error     *RPCError `xml:"rpc-error,omitempty"`
}

// RPCError reports an operation failure.
type RPCError struct {
	Type    string `xml:"error-type"`
	Tag     string `xml:"error-tag"`
	Message string `xml:"error-message"`
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("netconf: rpc-error %s/%s: %s", e.Type, e.Tag, e.Message)
}

// xmlEncoder is one pooled encoding workspace: an encoder that writes
// compact XML into buf. xml.Marshal builds a new encoder, and with it a new
// 4 KB bufio.Writer, on every call; the pool builds one per concurrent user.
type xmlEncoder struct {
	buf bytes.Buffer
	enc *xml.Encoder
}

var encoders = sync.Pool{New: func() any {
	e := &xmlEncoder{}
	e.enc = xml.NewEncoder(&e.buf)
	return e
}}

// encodeXML encodes v with a pooled encoder and returns the encoder, whose
// buf holds the bytes, for the caller to release. A failed encode may leave
// an element open in the encoder, so that encoder is dropped, not pooled.
func encodeXML(v any) (*xmlEncoder, error) {
	e := encoders.Get().(*xmlEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return e, nil
}

// release returns the encoder to the pool unless its buffer grew too large.
func (e *xmlEncoder) release() {
	if e.buf.Cap() <= maxPooled {
		encoders.Put(e)
	}
}

// MarshalXML returns the XML encoding of v, byte for byte what xml.Marshal
// returns, built with a pooled encoder. The result is the caller's own copy.
func MarshalXML(v any) ([]byte, error) {
	e, err := encodeXML(v)
	if err != nil {
		return nil, err
	}
	out := bytes.Clone(e.buf.Bytes())
	e.release()
	return out, nil
}

// marshalFrame encodes a message as compact XML and writes it with its
// delimiter as one frame in one Write.
func marshalFrame(w io.Writer, v any) error {
	e, err := encodeXML(v)
	if err != nil {
		return err
	}
	e.buf.WriteString(Delimiter)
	_, err = w.Write(e.buf.Bytes())
	e.release()
	return err
}
