package broker

import (
	"bytes"
	"testing"
)

// FuzzHandshake throws arbitrary bytes at the server-side hello parser.
// Invariants: no panic, no unbounded read (the parser consumes at most the
// hello's own bytes), and every accepted hello is internally consistent
// and survives a canonical re-encode/re-parse roundtrip.
//
// The seed corpus under testdata/fuzz/FuzzHandshake covers well-formed
// hellos of every role and placement byte, truncations at each field
// boundary, bad magic, unknown roles, absurd and overflowing resume
// sequence numbers, and the retired v1/v2 hellos (now the version-reject
// path); the seeds run as part of the ordinary test suite, and
// `go test -fuzz=FuzzHandshake ./internal/broker` explores further.
func FuzzHandshake(f *testing.F) {
	f.Add(appendHello(nil, RoleSubscribe, "md", 0, placementDefault))
	f.Add(appendHello(nil, RolePublish, "md", 0, placementDefault))
	f.Add(appendHello(nil, RoleResume, "md", 42, placementDefault))
	f.Add(appendHello(nil, RoleSubscribe, "md", 0, 'B'))
	f.Add(appendHello(nil, RolePublish, "md", 0, 'R'))
	f.Add(appendHello(nil, RoleResume, "md", 42, 'A'))
	f.Add(appendHello(nil, RoleSubscribe, "md", 0, 0))                       // unknown placement byte
	f.Add(appendHello(nil, RoleSubscribe, "md", 0, 'Z'))                     // unknown placement byte
	f.Add([]byte("CCB\x03S\x02md"))                                          // truncated before placement
	f.Add([]byte("CCB\x03R\x02md\x80\x80\x80\x80\x80\x80\x80\x80\x80\x7e-")) // lastSeq overflows at the tenth byte
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		hs, err := readHandshake(r)
		if err != nil {
			return
		}
		// The parser must never consume bytes past the hello: the frame
		// stream begins immediately after it. The longest legal hello is
		// magic+version+role (5) + channel length uvarint (2 for <=255) +
		// channel (255) + lastSeq uvarint (10) + placement (1).
		if consumed := len(data) - r.Len(); consumed > 5+2+255+10+1 {
			t.Fatalf("parser consumed %d bytes", consumed)
		}
		switch hs.role {
		case RolePublish, RoleSubscribe, RoleResume:
		default:
			t.Fatalf("accepted unknown role %q", hs.role)
		}
		if hs.channel == "" || len(hs.channel) > MaxChannelName {
			t.Fatalf("accepted channel name of length %d", len(hs.channel))
		}
		if hs.role != RoleResume && hs.lastSeq != 0 {
			t.Fatalf("non-resume hello carries lastSeq %d", hs.lastSeq)
		}
		// Canonical re-encode must parse back to the same hello.
		hs2, err := readHandshake(bytes.NewReader(appendHello(nil, hs.role, hs.channel, hs.lastSeq, hs.placement)))
		if err != nil {
			t.Fatalf("canonical re-encode rejected: %v", err)
		}
		if hs2 != hs {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", hs2, hs)
		}
	})
}

// FuzzHandshakeRoundtrip drives the parser through the structured space:
// any role byte, channel, resume sequence and placement byte, encoded
// exactly as the client side does. Valid inputs must parse to the same
// fields; invalid ones must be rejected, never mangled. The placement byte
// is never a reason to reject: the broker resolves it after the parse, and
// there an unknown byte degrades to publisher-side compression rather than
// refusing the session (forward compatibility for placements we haven't
// invented yet).
func FuzzHandshakeRoundtrip(f *testing.F) {
	f.Add(uint8('S'), "md", uint64(0), uint8('-'))
	f.Add(uint8('P'), "audit", uint64(0), uint8('-'))
	f.Add(uint8('R'), "md", uint64(1<<40), uint8('-'))
	f.Add(uint8('X'), "md", uint64(7), uint8('-'))
	f.Add(uint8('R'), "", uint64(3), uint8('-'))
	f.Add(uint8('S'), "md", uint64(0), uint8('B'))
	f.Add(uint8('P'), "md", uint64(0), uint8('R'))
	f.Add(uint8('R'), "md", uint64(9), uint8('A'))
	f.Add(uint8('S'), "md", uint64(0), uint8('z')) // unknown placement
	f.Add(uint8('S'), "md", uint64(0), uint8(0))   // unknown placement
	f.Fuzz(func(t *testing.T, role uint8, channel string, lastSeq uint64, plByte uint8) {
		hs, err := readHandshake(bytes.NewReader(appendHello(nil, role, channel, lastSeq, plByte)))
		valid := (role == RolePublish || role == RoleSubscribe || role == RoleResume) &&
			channel != "" && len(channel) <= MaxChannelName
		if valid != (err == nil) {
			t.Fatalf("role %q channel %q: valid=%v but err=%v", role, channel, valid, err)
		}
		if err != nil {
			return
		}
		if hs.role != role || hs.channel != channel || hs.placement != plByte {
			t.Fatalf("parsed %+v from role %q channel %q placement %q", hs, role, channel, plByte)
		}
		if role == RoleResume && hs.lastSeq != lastSeq {
			t.Fatalf("lastSeq = %d, want %d", hs.lastSeq, lastSeq)
		}
	})
}
