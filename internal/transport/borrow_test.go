package transport

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// borrowPayload is message i's body: its index, then a pattern derived
// from it, so a receiver can tell the original bytes from anything the
// sender wrote into its buffer afterwards.
func borrowPayload(buf []byte, i int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(i))
	for j := 0; j < 56; j++ {
		buf = append(buf, byte(i*7+j))
	}
	return buf
}

// borrowIntact reports the index a payload carries and whether every
// byte is the one borrowPayload wrote for that index.
func borrowIntact(p []byte) (int, bool) {
	if len(p) != 64 {
		return 0, false
	}
	i := int(binary.LittleEndian.Uint64(p))
	for j, b := range p[8:] {
		if b != byte(i*7+j) {
			return i, false
		}
	}
	return i, true
}

// Send keeps no reference to the payload on any transport: the sender
// overwrites its one buffer right after every Send — as a peer fanning
// one encoding out, or its stream loop encoding the next packet, does —
// and every delivery still carries the original bytes, held, duplicated
// and queued deliveries included.
func TestSendKeepsNoReference(t *testing.T) {
	const n = 200
	impair := Impairment{Seed: 5, Duplicate: 0.3, Reorder: 0.3, ReorderWindow: 4, MaxHold: 20 * time.Millisecond}
	type pair struct {
		tx    Endpoint
		to    string
		flush func()
		close func()
	}
	for _, tc := range []struct {
		name string
		// lossy tolerates datagrams the kernel sheds.
		lossy bool
		open  func(t *testing.T, h Handler) pair
	}{
		{"fabric", false, func(t *testing.T, h Handler) pair {
			f := NewFabric()
			f.Endpoint("rx", h)
			return pair{f.Endpoint("tx", func(Msg) {}), "rx", f.Wait, func() {}}
		}},
		{"queued fabric", false, func(t *testing.T, h Handler) pair {
			f := NewBoundedQueuedFabric(16, QueueBlock)
			f.Endpoint("rx", h)
			return pair{f.Endpoint("tx", func(Msg) {}), "rx", f.Wait, func() {}}
		}},
		{"impaired fabric", false, func(t *testing.T, h Handler) pair {
			f := NewFabric()
			imp := f.SetImpairment(impair)
			f.Endpoint("rx", h)
			return pair{f.Endpoint("tx", func(Msg) {}), "rx", func() { imp.Flush(); f.Wait() }, func() {}}
		}},
		{"tcp", false, func(t *testing.T, h Handler) pair {
			rx, err := ListenTCP("127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := ListenTCP("127.0.0.1:0", func(Msg) {})
			if err != nil {
				t.Fatal(err)
			}
			return pair{tx, rx.Name(), func() {}, func() { tx.Close(); rx.Close() }}
		}},
		{"impaired udp", true, func(t *testing.T, h Handler) pair {
			rx, err := ListenUDP("127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := ListenUDP("127.0.0.1:0", func(Msg) {})
			if err != nil {
				t.Fatal(err)
			}
			imp := tx.SetImpairment(impair)
			return pair{tx, rx.Name(), imp.Flush, func() { tx.Close(); rx.Close() }}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[int]bool)
			deliveries, corrupt := 0, 0
			p := tc.open(t, func(m Msg) {
				i, ok := borrowIntact(m.Payload)
				mu.Lock()
				defer mu.Unlock()
				deliveries++
				if !ok {
					corrupt++
					return
				}
				seen[i] = true
			})
			defer p.close()
			buf := make([]byte, 0, 64)
			for i := 0; i < n; i++ {
				buf = borrowPayload(buf, i)
				if err := p.tx.Send(p.to, Msg{Type: "data", From: p.tx.Name(), Payload: buf}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				for j := range buf {
					buf[j] = 0xee
				}
			}
			p.flush()
			want := n
			if tc.lossy {
				want = n * 9 / 10
			}
			// A payload read from the sender's buffer shows up as 0xee
			// bytes or as a later message's bytes, which leaves an earlier
			// index unseen.
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				done, bad, got := len(seen) >= want, corrupt, len(seen)
				mu.Unlock()
				if bad > 0 {
					t.Fatalf("%d deliveries carried bytes the sender wrote after Send", bad)
				}
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d payloads arrived intact", got, n)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}
