package main

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"os"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/serve"
)

// node is one in-process server on a real loopback listener, configured as
// `wfrepro serve` configures it by default: engine defaults (cache 512, no
// spill, Workers = NumCPU), default concurrency and timeout, slowlog and
// pprof off.
type node struct {
	srv    *serve.Server
	cl     *cluster.Cluster // nil on a single node
	base   string           // http://host:port
	cancel context.CancelFunc
	done   chan error
}

// startNode brings a node up on addr ("127.0.0.1:0" for a single node).
// A non-empty peers list makes it a cluster member advertising addr, wired
// exactly as `wfrepro serve -peers` wires one.
func startNode(addr string, peers []string) (*node, error) {
	eng := engine.New(engine.Options{CacheSize: engine.DefaultCacheSize})
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{cancel: cancel, done: make(chan error, 1)}
	if len(peers) > 0 {
		cl, err := cluster.New(cluster.Options{
			Self:       addr,
			Peers:      peers,
			VNodes:     cluster.DefaultVNodes,
			Metrics:    eng.Metrics(),
			Admitter:   eng,
			FetchLimit: eng.FetchByteLimit,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		eng.SetPeerFiller(cl)
		n.cl = cl
	}
	n.srv = serve.NewServer(eng, serve.Options{
		MaxConcurrent: serve.DefaultMaxConcurrent,
		Timeout:       serve.DefaultTimeout,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Cluster:       n.cl,
	})
	if n.cl != nil {
		n.cl.Start(ctx)
	}
	ready := make(chan string, 1)
	go func() { n.done <- serve.Run(ctx, addr, n.srv, ready) }()
	select {
	case bound := <-ready:
		n.base = "http://" + bound
		return n, nil
	case err := <-n.done:
		cancel()
		return nil, err
	}
}

// stop drains the node and waits until its listener has closed.
func (n *node) stop() error {
	n.cancel()
	return <-n.done
}

// freeAddrs reserves k distinct loopback addresses for cluster members,
// which must know their advertise address before they listen.
func freeAddrs(k int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, k)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// startCluster brings up k members joined by gossip through the first one
// (every member's seed list is that single node) and waits until every
// member's ring holds all k nodes under the same membership hash. The
// addresses are reserved and released before the members bind them, so
// a port taken in between costs one more attempt.
func startCluster(k int) ([]*node, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var nodes []*node
		if nodes, err = tryCluster(k); err == nil || errors.Is(err, errNoConvergence) {
			return nodes, err
		}
	}
	return nil, err
}

var errNoConvergence = errors.New("cluster did not converge within 30s")

func tryCluster(k int) ([]*node, error) {
	addrs, err := freeAddrs(k)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	for _, a := range addrs {
		n, err := startNode(a, []string{addrs[0]})
		if err != nil {
			stopAll(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !converged(nodes) {
		if time.Now().After(deadline) {
			stopAll(nodes)
			return nil, errNoConvergence
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nodes, nil
}

func converged(nodes []*node) bool {
	hash := nodes[0].cl.MembersHash()
	for _, n := range nodes {
		if len(n.cl.Ring().Nodes()) != len(nodes) || n.cl.MembersHash() != hash {
			return false
		}
	}
	return true
}

func stopAll(nodes []*node) {
	for _, n := range nodes {
		n.cancel()
	}
	for _, n := range nodes {
		<-n.done
	}
}
