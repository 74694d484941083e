// Fault-tolerance sweep: quantifies §3.2's reliability claim on the
// simulator. For increasing numbers of crashed contents peers and
// increasing packet loss, how much of the content does the leaf still
// receive under DCoP, with and without parity?
package main

import (
	"fmt"
	"log"

	"p2pmss"
)

func main() {
	base := func() p2pmss.SimConfig {
		cfg := p2pmss.DefaultSimConfig()
		cfg.N = 16
		cfg.H = 6
		cfg.DataPlane = true
		cfg.Loop = false
		cfg.ContentLen = 600
		cfg.Rate = 10
		return cfg
	}

	fmt.Println("Crashed peers vs delivery (n=16, H=6, DCoP):")
	fmt.Printf("%8s %12s %12s %12s\n", "crashes", "h=2", "h=5", "no parity*")
	for crashes := 0; crashes <= 4; crashes++ {
		fmt.Printf("%8d", crashes)
		for _, h := range []int{2, 5, 120} { // h ≥ ContentLen/H ≈ no parity
			cfg := base()
			cfg.Interval = h
			cfg.Churn = &p2pmss.ChurnSchedule{}
			for i := 0; i < crashes; i++ {
				// After coordination, mid-stream.
				cfg.Churn.Events = append(cfg.Churn.Events, p2pmss.ChurnEvent{At: 20, Peer: p2pmss.PeerID(i * 3)})
			}
			res, err := p2pmss.Simulate(p2pmss.DCoP, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %11.1f%%", 100*float64(res.DeliveredData)/float64(cfg.ContentLen))
		}
		fmt.Println()
	}
	fmt.Println("  (*h=120: parity interval larger than any subsequence)")

	fmt.Println("\nPacket loss vs delivery (n=16, H=6, DCoP):")
	fmt.Printf("%8s %12s %12s\n", "loss", "h=2", "h=8")
	for _, loss := range []float64{0, 0.01, 0.03, 0.05, 0.10} {
		fmt.Printf("%7.0f%%", loss*100)
		for _, h := range []int{2, 8} {
			cfg := base()
			cfg.Interval = h
			cfg.LossProb = loss
			res, err := p2pmss.Simulate(p2pmss.DCoP, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %11.1f%%", 100*float64(res.DeliveredData)/float64(cfg.ContentLen))
		}
		fmt.Println()
	}
	fmt.Println("\nSmaller parity intervals tolerate more loss and crashes, at")
	fmt.Println("the cost of a higher receipt rate — the §3.2 trade-off.")
}
