// Package rpcaug implements SAND's custom-augmentation extension point
// (§5.5 of the paper): user-defined transforms run in a separate process
// behind an RPC boundary, so external libraries and runtimes never link
// into the SAND core and can be updated independently.
//
// The wire protocol is Go's net/rpc over TCP or a Unix socket. A server
// process registers named transform functions; the client side exposes
// them as augment.Op values that drop into any SAND pipeline.
package rpcaug

import (
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sort"
	"sync"

	"sand/internal/augment"
	"sand/internal/frame"
)

// TransformFunc is a user-defined clip transform hosted by a Server.
// It must not mutate the input clip.
type TransformFunc func(clip *frame.Clip, params map[string]string) (*frame.Clip, error)

// Request is the RPC request: a serialized clip plus parameters.
type Request struct {
	Name   string
	Clip   []byte
	Params map[string]string
}

// Response is the RPC response: the serialized transformed clip.
type Response struct {
	Clip []byte
}

// service is the net/rpc receiver.
type service struct {
	mu    sync.RWMutex
	funcs map[string]TransformFunc
	calls map[string]int
}

// Apply executes the named transform (net/rpc exported method).
func (s *service) Apply(req *Request, resp *Response) error {
	s.mu.RLock()
	fn, ok := s.funcs[req.Name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("rpcaug: unknown transform %q", req.Name)
	}
	clip, err := frame.DecodeClip(req.Clip)
	if err != nil {
		return fmt.Errorf("rpcaug: bad input clip: %w", err)
	}
	out, err := fn(clip, req.Params)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.calls[req.Name]++
	s.mu.Unlock()
	resp.Clip = frame.EncodeClip(out)
	return nil
}

// List returns the registered transform names (net/rpc exported method).
func (s *service) List(_ *struct{}, names *[]string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := range s.funcs {
		*names = append(*names, n)
	}
	sort.Strings(*names)
	return nil
}

// Server hosts custom transforms.
type Server struct {
	svc *service
	lis net.Listener
	rpc *rpc.Server
}

// NewServer creates a server with no transforms registered.
func NewServer() *Server {
	return &Server{svc: &service{funcs: map[string]TransformFunc{}, calls: map[string]int{}}}
}

// Register adds a named transform. Registering a duplicate name is an
// error so configuration mistakes surface early.
func (s *Server) Register(name string, fn TransformFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("rpcaug: transform needs a name and a function")
	}
	s.svc.mu.Lock()
	defer s.svc.mu.Unlock()
	if _, dup := s.svc.funcs[name]; dup {
		return fmt.Errorf("rpcaug: duplicate transform %q", name)
	}
	s.svc.funcs[name] = fn
	return nil
}

// Calls returns how many times the named transform ran.
func (s *Server) Calls(name string) int {
	s.svc.mu.RLock()
	defer s.svc.mu.RUnlock()
	return s.svc.calls[name]
}

// Serve starts accepting connections on network/addr ("tcp",
// "127.0.0.1:0" or "unix", "/tmp/sand-aug.sock"). It returns the bound
// address immediately; connections are served on background goroutines.
func (s *Server) Serve(network, addr string) (string, error) {
	lis, err := net.Listen(network, addr)
	if err != nil {
		return "", fmt.Errorf("rpcaug: %w", err)
	}
	s.lis = lis
	s.rpc = rpc.NewServer()
	if err := s.rpc.RegisterName("Aug", s.svc); err != nil {
		lis.Close()
		return "", fmt.Errorf("rpcaug: %w", err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			go s.rpc.ServeConn(conn)
		}
	}()
	return lis.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.lis == nil {
		return nil
	}
	return s.lis.Close()
}

// Client talks to a transform server.
type Client struct {
	rc *rpc.Client
}

// Dial connects to a server.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("rpcaug: %w", err)
	}
	return &Client{rc: rpc.NewClient(conn)}, nil
}

// List returns the server's registered transform names.
func (c *Client) List() ([]string, error) {
	var names []string
	if err := c.rc.Call("Aug.List", &struct{}{}, &names); err != nil {
		return nil, fmt.Errorf("rpcaug: %w", err)
	}
	return names, nil
}

// Apply runs the named transform remotely.
func (c *Client) Apply(name string, clip *frame.Clip, params map[string]string) (*frame.Clip, error) {
	var resp Response
	if err := c.rc.Call("Aug.Apply", &Request{Name: name, Clip: frame.EncodeClip(clip), Params: params}, &resp); err != nil {
		return nil, fmt.Errorf("rpcaug: %w", err)
	}
	return frame.DecodeClip(resp.Clip)
}

// Close closes the connection.
func (c *Client) Close() error { return c.rc.Close() }

// RemoteOp adapts a remote transform into an augment.Op so it composes
// with built-in pipeline stages. Remote transforms are treated as
// deterministic for planning purposes (the server owns any randomness and
// must derive it from Params for reproducibility).
type RemoteOp struct {
	Client *Client
	// Transform is the registered name on the server.
	Transform string
	// Params are forwarded on every call.
	Params map[string]string
}

// Name implements augment.Op.
func (r *RemoteOp) Name() string { return "rpc:" + r.Transform }

// Signature implements augment.Op.
func (r *RemoteOp) Signature() string {
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sig := "rpc:" + r.Transform + "("
	for i, k := range keys {
		if i > 0 {
			sig += ","
		}
		sig += k + "=" + r.Params[k]
	}
	return sig + ")"
}

// Deterministic implements augment.Op.
func (r *RemoteOp) Deterministic() bool { return true }

// Apply implements augment.Op.
func (r *RemoteOp) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return r.Client.Apply(r.Transform, clip, r.Params)
}

// Interface check: a RemoteOp must drop into any pipeline.
var _ augment.Op = (*RemoteOp)(nil)
