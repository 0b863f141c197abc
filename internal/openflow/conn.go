package openflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Conn frames Messages over a stream transport. Writes are serialized so
// multiple goroutines may send concurrently; one goroutine reads.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	hdr [headerLen]byte // Read's header buffer
	wmu sync.Mutex
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// Read blocks for the next message.
func (c *Conn) Read() (*Message, error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadVersion, hdr[0])
	}
	ln := int(binary.BigEndian.Uint16(hdr[2:4]))
	if ln < headerLen {
		return nil, fmt.Errorf("%w: declared length %d", ErrTruncated, ln)
	}
	if ln > maxMsgLen {
		return nil, ErrTooLarge
	}
	body := make([]byte, ln-headerLen)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return nil, err
	}
	return &Message{Type: MsgType(hdr[1]), XID: binary.BigEndian.Uint32(hdr[4:8]), Body: body}, nil
}

// Write sends encoded messages (see Message.appendTo) in one write.
func (c *Conn) Write(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.c.Write(b)
	return err
}

// Close terminates the transport.
func (c *Conn) Close() error { return c.c.Close() }

// SetWriteDeadline bounds blocking writes only (a peer that stopped draining
// its socket fails the sender instead of wedging it).
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.c.SetWriteDeadline(t) }
