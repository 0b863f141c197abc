package netconf

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// Client is a synchronous NETCONF client: one outstanding RPC at a time,
// correlated by message-id.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
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
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	frame, err := ReadFrame(c.br)
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
	_ = marshalFrame(c.conn, &RPC{MessageID: strconv.Itoa(c.nextID), Close: &struct{}{}})
	err := c.conn.Close()
	c.conn = nil
	return err
}

// GetConfig fetches the running datastore XML.
func (c *Client) GetConfig() ([]byte, error) {
	reply, err := c.call(&RPC{GetConfig: &GetConfig{Source: "running"}})
	if err != nil {
		return nil, err
	}
	if reply.Data == nil {
		return nil, fmt.Errorf("%w: get-config returned no data", ErrRPC)
	}
	return reply.Data.Inner, nil
}

// EditConfig pushes configuration XML to the running datastore.
func (c *Client) EditConfig(config []byte) error {
	reply, err := c.call(&RPC{EditConfig: &EditConfig{Target: "running", Config: RawBody{Inner: config}}})
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
func (c *Client) EditConfigData(config []byte) ([]byte, error) {
	reply, err := c.call(&RPC{EditConfig: &EditConfig{Target: "running", Config: RawBody{Inner: config}}})
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
func (c *Client) Call(action string, body []byte) ([]byte, error) {
	reply, err := c.call(&RPC{Action: &Action{Name: action, Body: RawBody{Inner: body}}})
	if err != nil {
		return nil, err
	}
	if reply.Data != nil {
		return reply.Data.Inner, nil
	}
	return nil, nil
}

func (c *Client) call(rpc *RPC) (*Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	c.nextID++
	rpc.MessageID = strconv.Itoa(c.nextID)
	if err := marshalFrame(c.conn, rpc); err != nil {
		return nil, err
	}
	for {
		frame, err := ReadFrame(c.br)
		if err != nil {
			return nil, err
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
