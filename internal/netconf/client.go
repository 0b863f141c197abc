package netconf

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"
)

// DefaultRPCTimeout bounds one RPC whose context carries no deadline, and the
// hello exchange of Dial. A device that stops answering fails the call with
// an error wrapping context.DeadlineExceeded instead of wedging the caller,
// and whatever commit lock the caller holds, forever.
const DefaultRPCTimeout = 5 * time.Second

// Client is a synchronous NETCONF client: one outstanding RPC at a time,
// correlated by message-id.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	fr     *frameReader
	nextID int
	// ServerCapabilities holds the peer's announced capabilities.
	ServerCapabilities []string
	// SessionID is assigned by the server's hello.
	SessionID uint64
}

// Dial connects and performs the hello exchange.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netconf: dial: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(DefaultRPCTimeout))
	c := &Client{conn: conn, fr: newFrameReader(conn)}
	frame, err := c.fr.ReadFrame()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("netconf: server hello: %w", err)
	}
	var serverHello Hello
	if err := xml.Unmarshal(frame, &serverHello); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("netconf: server hello: %w", err)
	}
	c.ServerCapabilities = serverHello.Capabilities
	c.SessionID = serverHello.SessionID
	if err := marshalFrame(conn, &Hello{Capabilities: []string{BaseCapability}}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Close sends close-session and tears down the transport.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	// Best-effort close-session; ignore the reply.
	c.nextID++
	_ = c.conn.SetWriteDeadline(time.Now().Add(DefaultRPCTimeout))
	_ = marshalFrame(c.conn, &RPC{MessageID: strconv.Itoa(c.nextID), Close: &struct{}{}})
	err := c.conn.Close()
	c.conn = nil
	return err
}

// GetConfig fetches the running datastore XML.
func (c *Client) GetConfig(ctx context.Context) ([]byte, error) {
	reply, err := c.call(ctx, &RPC{GetConfig: &GetConfig{Source: "running"}})
	if err != nil {
		return nil, err
	}
	if reply.Data == nil {
		return nil, fmt.Errorf("%w: get-config returned no data", ErrRPC)
	}
	return reply.Data.Inner, nil
}

// EditConfig pushes configuration XML to the running datastore.
func (c *Client) EditConfig(ctx context.Context, config []byte) error {
	reply, err := c.call(ctx, &RPC{EditConfig: &EditConfig{Target: "running", Config: RawBody{Inner: config}}})
	if err != nil {
		return err
	}
	if reply.OK == nil && reply.Data == nil {
		return fmt.Errorf("%w: edit-config not acknowledged", ErrRPC)
	}
	return nil
}

// EditConfigData pushes configuration XML and returns any <data> the server
// attached to the acknowledgement (nil when it answered a plain <ok/>). This
// replica's coalesced deltas use the reply to carry e.g. NF port allocations
// back in the same round-trip.
func (c *Client) EditConfigData(ctx context.Context, config []byte) ([]byte, error) {
	reply, err := c.call(ctx, &RPC{EditConfig: &EditConfig{Target: "running", Config: RawBody{Inner: config}}})
	if err != nil {
		return nil, err
	}
	if reply.Data != nil {
		return reply.Data.Inner, nil
	}
	if reply.OK == nil {
		return nil, fmt.Errorf("%w: edit-config not acknowledged", ErrRPC)
	}
	return nil, nil
}

// Call invokes a named action with an XML body and returns the reply data
// (nil when the server answered <ok/>).
func (c *Client) Call(ctx context.Context, action string, body []byte) ([]byte, error) {
	reply, err := c.call(ctx, &RPC{Action: &Action{Name: action, Body: RawBody{Inner: body}}})
	if err != nil {
		return nil, err
	}
	if reply.Data != nil {
		return reply.Data.Inner, nil
	}
	return nil, nil
}

// call runs one RPC under ctx's deadline, or DefaultRPCTimeout from now when
// ctx has none. Canceling ctx does not interrupt an RPC already sent: it runs
// to its reply or its deadline. A transport failure closes the session (see
// fail).
func (c *Client) call(ctx context.Context, rpc *RPC) (*Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(DefaultRPCTimeout)
	}
	_ = c.conn.SetDeadline(deadline)
	c.nextID++
	rpc.MessageID = strconv.Itoa(c.nextID)
	if err := marshalFrame(c.conn, rpc); err != nil {
		return nil, c.fail(err)
	}
	for {
		frame, err := c.fr.ReadFrame()
		if err != nil {
			return nil, c.fail(err)
		}
		var reply Reply
		if err := xml.Unmarshal(frame, &reply); err != nil {
			return nil, fmt.Errorf("netconf: bad reply: %w", err)
		}
		if reply.MessageID != rpc.MessageID {
			continue // stale reply; synchronous clients skip it
		}
		if reply.Error != nil {
			return nil, fmt.Errorf("%w: %s", ErrRPC, reply.Error.Message)
		}
		return &reply, nil
	}
}

// fail closes the session after a transport error: a half-written request or
// an unread reply leaves the stream out of step, so no later RPC may use it
// (they return ErrClosed). An expired deadline reports as
// context.DeadlineExceeded.
func (c *Client) fail(err error) error {
	_ = c.conn.Close()
	c.conn = nil
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("netconf: rpc failed, session closed: %w", err)
}
