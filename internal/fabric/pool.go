package fabric

import (
	"net"
	"sync"
	"time"

	"gostats/internal/broker"
	"gostats/internal/codec"
)

// ClientPool shares one broker connection per broker address. A fabric
// publisher fans each snapshot out to R owner brokers; without sharing,
// a 10k-node simulation (or a node daemon publishing through several
// owners) would open a connection per publisher per broker and exhaust
// file descriptors. broker.Client serializes its own frame+ack
// exchanges internally, so a shared connection is safe — publishes from
// different producers interleave at message granularity.
type ClientPool struct {
	// Dialer, when non-nil, replaces net.DialTimeout — the
	// fault-injection seam.
	Dialer func(addr string) (net.Conn, error)

	// Codec declares the snapshot codec on each pooled connection.
	Codec codec.Version

	pol broker.Policy

	mu      sync.Mutex
	clients map[string]*broker.Client
	dialed  map[string]bool // addresses ever connected, to tell a redial from a first dial
	closed  bool
}

// NewClientPool builds a pool dialing under pol's deadlines (zero
// fields take defaults).
func NewClientPool(pol broker.Policy) *ClientPool {
	return &ClientPool{pol: pol, clients: make(map[string]*broker.Client), dialed: make(map[string]bool)}
}

// Get returns the live shared client for addr, dialing if needed.
// redialed reports that this call reconnected to an address whose
// earlier connection was lost — the publisher's reconnect count.
func (cp *ClientPool) Get(addr string) (c *broker.Client, redialed bool, err error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.closed {
		return nil, false, broker.ErrClosed
	}
	if c, ok := cp.clients[addr]; ok {
		return c, false, nil
	}
	var conn net.Conn
	if cp.Dialer != nil {
		conn, err = cp.Dialer(addr)
	} else {
		to := cp.pol.DialTimeout
		if to <= 0 {
			to = broker.DefaultPolicy().DialTimeout
		}
		conn, err = net.DialTimeout("tcp", addr, to)
	}
	if err != nil {
		return nil, false, err
	}
	if c, err = broker.NewClientConn(conn); err != nil {
		return nil, false, err
	}
	pol := cp.pol
	if pol.WriteTimeout <= 0 || pol.AckTimeout <= 0 {
		d := broker.DefaultPolicy()
		if pol.WriteTimeout <= 0 {
			pol.WriteTimeout = d.WriteTimeout
		}
		if pol.AckTimeout <= 0 {
			pol.AckTimeout = d.AckTimeout
		}
	}
	c.WriteTimeout = pol.WriteTimeout
	c.AckTimeout = pol.AckTimeout
	c.Codec = cp.Codec
	cp.clients[addr] = c
	redialed = cp.dialed[addr]
	cp.dialed[addr] = true
	return c, redialed, nil
}

// Invalidate closes and forgets the pooled client for addr (it failed;
// the next Get redials). Invalidating a client another caller already
// retired or replaced is harmless; retired reports whether this call was
// the one that retired it — every publisher sharing a connection fails
// when it breaks, and only the first should count that as one failure.
func (cp *ClientPool) Invalidate(addr string, c *broker.Client) (retired bool) {
	cp.mu.Lock()
	if cur, ok := cp.clients[addr]; ok && cur == c {
		delete(cp.clients, addr)
		retired = true
	}
	cp.mu.Unlock()
	if c != nil {
		c.Close()
	}
	return retired
}

// Close closes every pooled connection; further Gets fail.
func (cp *ClientPool) Close() {
	cp.mu.Lock()
	cp.closed = true
	cs := cp.clients
	cp.clients = map[string]*broker.Client{}
	cp.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}

// backoffDelay is the policy backoff for retry attempt n, bounded so
// fabric retry rounds never stall a caller for long.
func backoffDelay(pol broker.Policy, attempt int) time.Duration {
	d := pol.Backoff(attempt, nil)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// backoffSleep sleeps the bounded policy backoff for retry attempt n.
func backoffSleep(pol broker.Policy, attempt int) {
	time.Sleep(backoffDelay(pol, attempt))
}
