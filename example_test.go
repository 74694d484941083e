package p2pmss_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"p2pmss"
)

// ExampleSimulate runs DCoP at the paper's quoted evaluation point
// (n = 100 contents peers, fanout H = 60) and reports the headline
// metrics of Figure 10.
func ExampleSimulate() {
	cfg := p2pmss.DefaultSimConfig()
	cfg.H = 60
	res, err := p2pmss.Simulate(p2pmss.DCoP, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds=%d active=%d/%d\n", res.Rounds, res.ActivePeers, cfg.N)
	// Output:
	// rounds=2 active=100/100
}

// ExampleAllocate reproduces the paper's Figure 1: three channels with
// bandwidth ratio 4:2:1 sharing packets t1..t7 under the §2 time-slot
// allocation.
func ExampleAllocate() {
	al := p2pmss.Allocate(7, p2pmss.ProportionalChannels(4, 2, 1))
	for i, pkts := range al.PerChannel {
		fmt.Printf("CP%d: %v\n", i+1, pkts)
	}
	// Output:
	// CP1: [1 2 4 5]
	// CP2: [3 6]
	// CP3: [7]
}

// ExampleStartLiveNodes streams a content from six contents peers to a
// leaf session on the seventh node, over the in-memory fabric, and
// verifies byte-exact delivery.
func ExampleStartLiveNodes() {
	data := bytes.Repeat([]byte("multimedia "), 400)
	store := p2pmss.NewContentStore()
	store.Put(p2pmss.NewContent("movie", data, 64))
	nodes, err := p2pmss.StartLiveNodes(p2pmss.LiveNodesConfig{
		Nodes:    7,
		Store:    store,
		H:        3,
		Interval: 2,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nodes.Close()
	session, err := nodes.Open(6, p2pmss.LiveSessionConfig{
		ContentID:   "movie",
		ContentSize: len(data),
		PacketSize:  64,
		Rate:        500,
		RepairAfter: 500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Wait(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	got, ok := session.Bytes()
	fmt.Println(ok && bytes.Equal(got, data))
	// Output:
	// true
}

// ExampleNewAssembler reassembles content bytes at a leaf peer from
// out-of-order packet arrivals.
func ExampleNewAssembler() {
	c := p2pmss.NewContent("clip", []byte("abcdef"), 2) // t1..t3
	a := p2pmss.NewAssembler(6, 2)
	a.Add(c.Packet(3))
	a.Add(c.Packet(1))
	fmt.Println(a.Complete(), a.Missing())
	a.Add(c.Packet(2))
	data, ok := a.Bytes()
	fmt.Println(ok, string(data))
	// Output:
	// false [2]
	// true abcdef
}
