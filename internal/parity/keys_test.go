package parity

import (
	"strconv"
	"testing"

	"p2pmss/internal/seq"
	"p2pmss/internal/wire"
)

// The identity-key helpers the tests and the fixpoint oracle speak: keys
// are how people and the wire spell identities, so the recoverer itself
// takes packets.

// parseKey returns a packet with the identity key, and no position or
// payload; ok is false unless key is one Key returns. It decodes the key
// as the one cover of a parity packet on the wire.
func parseKey(key string) (p seq.Packet, ok bool) {
	b := wire.AppendFloat([]byte{byte(seq.Parity), 0}, 0)
	b = wire.AppendBytes(wire.AppendString(wire.AppendUvarint(b, 1), key), nil)
	r := wire.NewReader(b)
	if q := seq.ReadPacket(&r); r.Done() == nil {
		return q.Cover(0), true
	}
	return seq.Packet{}, false
}

// CoversOf returns the keys of the packets that the parity packet with
// the given identity key covers, in order. ok is false unless key is the
// key of a parity packet that covers something.
func CoversOf(key string) (covers []string, ok bool) {
	p, ok := parseKey(key)
	if !ok || p.NumCovers() == 0 {
		return nil, false
	}
	covers = make([]string, p.NumCovers())
	for i := range covers {
		covers[i] = p.Cover(i).Key()
	}
	return covers, true
}

// DataKey returns the identity key "t<k>" of content data packet t_k.
func DataKey(k int64) string {
	return "t" + strconv.FormatInt(k, 10)
}

// DataIndexOf parses a data identity key "t<k>" back into its content
// index. ok is false when key is not a data key: only the canonical
// spelling DataKey produces is one ("t07" and "t+7" are not t7).
func DataIndexOf(key string) (k int64, ok bool) {
	p, ok := parseKey(key)
	return p.Index, ok && p.IsData()
}

// mustParse returns the packet with the identity key.
func mustParse(t *testing.T, key string) seq.Packet {
	t.Helper()
	p, ok := parseKey(key)
	if !ok {
		t.Fatalf("%q is no packet's key", key)
	}
	return p
}
