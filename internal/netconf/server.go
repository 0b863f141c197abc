package netconf

import (
	"encoding/xml"
	"log"
	"net"
	"sync"
	"sync/atomic"
)

// Datastore is the server-side configuration backend: the domain's local
// orchestrator implements it to expose its virtualizer over NETCONF.
type Datastore interface {
	// GetConfig returns the running configuration as XML.
	GetConfig() ([]byte, error)
	// EditConfig applies a configuration (opaque XML) transactionally. A
	// non-empty result travels back in the rpc-reply's <data> element (this
	// replica's extension over plain <ok/> — coalesced NF-lifecycle deltas
	// return their port allocations this way); a nil result answers <ok/>.
	EditConfig(config []byte) ([]byte, error)
	// Call executes a named action with an XML body, returning XML data.
	Call(action string, body []byte) ([]byte, error)
}

// Server accepts NETCONF sessions and dispatches RPCs to a Datastore.
type Server struct {
	ds     Datastore
	ln     net.Listener
	nextID atomic.Uint64
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewServer wraps a datastore.
func NewServer(ds Datastore) *Server {
	return &Server{ds: ds, conns: map[net.Conn]struct{}{}}
}

// Listen binds and serves in the background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener and all sessions.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serve(c)
	}
}

func (s *Server) serve(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	fr := newFrameReader(c)
	// Hello exchange: server announces first (like a NETCONF SSH subsystem),
	// then reads the client's hello.
	hello := &Hello{Capabilities: []string{BaseCapability, "urn:unify:virtualizer:1.0"}, SessionID: s.nextID.Add(1)}
	if err := marshalFrame(c, hello); err != nil {
		return
	}
	frame, err := fr.ReadFrame()
	if err != nil {
		return
	}
	var clientHello Hello
	if err := xml.Unmarshal(frame, &clientHello); err != nil {
		log.Printf("netconf server: bad client hello: %v", err)
		return
	}
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			return
		}
		var rpc RPC
		if err := xml.Unmarshal(frame, &rpc); err != nil {
			_ = marshalFrame(c, &Reply{MessageID: "", Error: &RPCError{Type: "protocol", Tag: "malformed-message", Message: err.Error()}})
			continue
		}
		reply := s.dispatch(&rpc)
		if err := marshalFrame(c, reply); err != nil {
			return
		}
		if rpc.Close != nil {
			return
		}
	}
}

func (s *Server) dispatch(rpc *RPC) *Reply {
	reply := &Reply{MessageID: rpc.MessageID}
	fail := func(tag string, err error) *Reply {
		reply.Error = &RPCError{Type: "application", Tag: tag, Message: err.Error()}
		return reply
	}
	switch {
	case rpc.GetConfig != nil:
		data, err := s.ds.GetConfig()
		if err != nil {
			return fail("operation-failed", err)
		}
		reply.Data = &RawBody{Inner: data}
	case rpc.EditConfig != nil:
		data, err := s.ds.EditConfig(rpc.EditConfig.Config.Inner)
		if err != nil {
			return fail("operation-failed", err)
		}
		if len(data) > 0 {
			reply.Data = &RawBody{Inner: data}
		} else {
			reply.OK = &struct{}{}
		}
	case rpc.Action != nil:
		data, err := s.ds.Call(rpc.Action.Name, rpc.Action.Body.Inner)
		if err != nil {
			return fail("operation-failed", err)
		}
		if len(data) > 0 {
			reply.Data = &RawBody{Inner: data}
		} else {
			reply.OK = &struct{}{}
		}
	case rpc.Close != nil:
		reply.OK = &struct{}{}
	default:
		reply.Error = &RPCError{Type: "protocol", Tag: "operation-not-supported", Message: "empty rpc"}
	}
	return reply
}
