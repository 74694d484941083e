// Video-on-demand example: the workload the paper's introduction
// motivates. A 256 KiB "movie" is streamed by eight contents peers to a
// leaf peer over the in-memory fabric; two serving peers crash
// mid-stream and the leaf still reassembles the movie byte-for-byte via
// parity recovery, the churn-tolerant hand-off and repair.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"p2pmss"
)

func main() {
	// Synthesize the movie.
	movie := make([]byte, 256<<10)
	rand.New(rand.NewSource(42)).Read(movie)
	c := p2pmss.NewContent("big-buck-gopher", movie, 512)
	fmt.Printf("movie %q: %d KiB in %d packets\n", c.ID(), c.Size()>>10, c.NumPackets())

	// Eight contents peers and the leaf's node, all holding the movie,
	// on an in-memory fabric.
	store := p2pmss.NewContentStore()
	store.Put(c)
	nodes, err := p2pmss.StartLiveNodes(p2pmss.LiveNodesConfig{
		Nodes:    9,
		Store:    store,
		H:        4,
		Interval: 2, // one parity packet per two data packets
		Delta:    5 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nodes.Close()

	start := time.Now()
	leaf, err := nodes.Open(8, p2pmss.LiveSessionConfig{
		ContentID:   c.ID(),
		ContentSize: len(movie),
		PacketSize:  512,
		Rate:        3000,
		RepairAfter: 400 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two serving peers die mid-movie.
	time.Sleep(50 * time.Millisecond)
	fmt.Printf("%d serving peers crashed mid-stream\n", nodes.CrashServing(2))

	if err := leaf.Wait(60 * time.Second); err != nil {
		log.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, movie) {
		log.Fatal("movie corrupted")
	}
	total, dup, recovered := leaf.Stats()
	fmt.Printf("movie delivered intact in %v (%d arrivals, %d duplicates, %d parity-recovered)\n",
		time.Since(start).Round(time.Millisecond), total, dup, recovered)
}
