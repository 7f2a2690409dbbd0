package ged

import (
	"errors"
	"hash/fnv"

	"repro/internal/detector"
	"repro/internal/event"
)

// Bus is the client-side contract shared by a single GED connection and a
// partitioned cluster of them: everything the sentinel facade needs to
// share events and react to global ones.
type Bus interface {
	Contribute(occ *event.Occurrence) error
	ContributeBatch(occs []event.Occurrence) error
	Flush() error
	Subscribe(eventName string, ctx detector.Context, h Handler) error
	SubscribeFrom(eventName string, from uint64, h StreamHandler) (uint64, error)
	Forwarder() detector.Subscriber
	Close() error
}

var (
	_ Bus = (*Client)(nil)
	_ Bus = (*Cluster)(nil)
)

// PartitionOf maps an event name to one of n partitions (FNV-1a). Every
// contributor and subscriber computes the same mapping, so all
// occurrences of one event land on one gedserver instance and composite
// detection over them stays local to it.
func PartitionOf(eventName string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(eventName))
	return int(h.Sum32() % uint32(n))
}

// Cluster fans a GED client across several gedserver instances, routing
// each event name to the instance PartitionOf selects. Cross-partition
// composite events are out of scope: a composite's constituents must
// hash to its partition (in practice, deployments name them with a
// shared prefix routed by the same hash, or run related applications
// against one partition).
type Cluster struct {
	clients []*Client
}

// DialCluster connects to every address; a single address degenerates to
// (a wrapper over) a plain client. On any dial error the already-open
// connections are closed.
func DialCluster(addrs []string, app string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("ged: no addresses")
	}
	cl := &Cluster{clients: make([]*Client, 0, len(addrs))}
	for _, addr := range addrs {
		c, err := Dial(addr, app)
		if err != nil {
			_ = cl.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, c)
	}
	return cl, nil
}

// Partitions returns the cluster width.
func (cl *Cluster) Partitions() int { return len(cl.clients) }

// PartitionClient exposes the client for one partition index (for
// offset bookkeeping per partition).
func (cl *Cluster) PartitionClient(i int) *Client { return cl.clients[i] }

func (cl *Cluster) route(eventName string) *Client {
	return cl.clients[PartitionOf(eventName, len(cl.clients))]
}

// Contribute routes one occurrence by event name.
func (cl *Cluster) Contribute(occ *event.Occurrence) error {
	return cl.route(occ.Name).Contribute(occ)
}

// ContributeBatch splits a batch by partition, preserving per-partition
// order, and sends one frame per partition touched.
func (cl *Cluster) ContributeBatch(occs []event.Occurrence) error {
	if len(cl.clients) == 1 {
		return cl.clients[0].ContributeBatch(occs)
	}
	parts := make(map[int][]event.Occurrence)
	for i := range occs {
		p := PartitionOf(occs[i].Name, len(cl.clients))
		parts[p] = append(parts[p], occs[i])
	}
	var firstErr error
	for p, batch := range parts {
		if err := cl.clients[p].ContributeBatch(batch); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flush waits for acks on every partition.
func (cl *Cluster) Flush() error {
	var firstErr error
	for _, c := range cl.clients {
		if err := c.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Subscribe registers a live handler on the partition owning the event.
func (cl *Cluster) Subscribe(eventName string, ctx detector.Context, h Handler) error {
	return cl.route(eventName).Subscribe(eventName, ctx, h)
}

// SubscribeFrom streams the owning partition's log. Offsets are
// per-partition; "*" streams only partition 0 (use PartitionClient to
// tail every partition's firehose).
func (cl *Cluster) SubscribeFrom(eventName string, from uint64, h StreamHandler) (uint64, error) {
	if eventName == "*" {
		// The firehose is not an event name: hashing it would pick an
		// arbitrary width-dependent partition. Pin it to partition 0, as
		// documented.
		return cl.clients[0].SubscribeFrom(eventName, from, h)
	}
	return cl.route(eventName).SubscribeFrom(eventName, from, h)
}

// Forwarder returns a Subscriber contributing every occurrence to its
// owning partition.
func (cl *Cluster) Forwarder() detector.Subscriber {
	return detector.SubscriberFunc(func(occ *event.Occurrence, _ detector.Context) {
		_ = cl.Contribute(occ)
	})
}

// Close closes every partition connection.
func (cl *Cluster) Close() error {
	var firstErr error
	for _, c := range cl.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
