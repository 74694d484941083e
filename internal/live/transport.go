package live

import (
	"fmt"

	"p2pmss/internal/transport"
)

// Transport selects how a live node attaches to the network. Construct
// one with WithFabric or WithAttach and pass it to NewNode; every
// session the node hosts sends through the one endpoint it opens.
type Transport interface {
	// open registers the node's inbound handler and returns its
	// endpoint. The method is unexported so the option set stays closed.
	open(h transport.Handler) (transport.Endpoint, error)
}

// transportFunc adapts a plain attach function to the Transport option.
type transportFunc func(transport.Handler) (transport.Endpoint, error)

func (f transportFunc) open(h transport.Handler) (transport.Endpoint, error) { return f(h) }

// WithFabric attaches the node to the in-memory fabric under the given
// endpoint name.
func WithFabric(f *transport.Fabric, name string) Transport {
	return transportFunc(func(h transport.Handler) (transport.Endpoint, error) {
		if f == nil {
			return nil, fmt.Errorf("live: WithFabric(nil)")
		}
		return f.Endpoint(name, h), nil
	})
}

// WithAttach attaches the node through a callback that receives its
// inbound handler and returns its endpoint — for endpoints the caller
// binds itself (a listener started before the node, a benchmark's
// instrumented socket).
func WithAttach(attach func(transport.Handler) (transport.Endpoint, error)) Transport {
	if attach == nil {
		return transportFunc(func(transport.Handler) (transport.Endpoint, error) {
			return nil, fmt.Errorf("live: WithAttach(nil)")
		})
	}
	return transportFunc(attach)
}
