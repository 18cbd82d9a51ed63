package echo

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
)

// Quality attribute names used by the compression integration (§3.2). They
// are globally named so every layer interprets them identically.
const (
	// AttrMethod carries the wire method of an event's payload.
	AttrMethod = "ccx.method"
	// AttrOrigLen carries the payload's original length.
	AttrOrigLen = "ccx.origlen"
	// AttrGoodput is the consumer's reported acceptance rate in bytes/s —
	// the upstream feedback that drives the producer's selector.
	AttrGoodput = "ccx.goodput"
)

// DeriveCompressed derives a new channel from src whose events carry
// framed, adaptively compressed payloads — the §3.2 integration where
// compression methods run as handlers on a derived event channel. The
// engine picks a method per event payload (events are the natural block
// unit in middleware use). A payload longer than codec.MaxFrameLen cannot
// be framed; within a domain it travels raw, flagged codec.None, and
// DecodeEvent passes it through. It cannot cross a Bridge: a bridge carries
// at most MaxEventData bytes of event data, and a longer event ends it.
//
// The producer-side engine listens for AttrGoodput feedback on the derived
// channel, completing the end-to-end loop across address spaces.
func DeriveCompressed(src *EventChannel, name string, e *core.Engine) (*EventChannel, error) {
	derived, err := src.Derive(name, func(ev Event) (Event, bool) {
		// Each event retains its frame, so the encode appends to a fresh one.
		var res core.BlockResult
		frame, err := e.Encode(nil, &core.Job{Block: ev.Data}, &res)
		if err != nil {
			// A handler cannot surface errors to the producer mid-stream;
			// fall back to transporting the event unmodified but flagged.
			attrs := ev.Attrs.Clone()
			if attrs == nil {
				attrs = Attributes{}
			}
			attrs[AttrMethod] = codec.None.String()
			return Event{Data: ev.Data, Attrs: attrs}, true
		}
		attrs := ev.Attrs.Clone()
		if attrs == nil {
			attrs = Attributes{}
		}
		attrs[AttrMethod] = res.Info.Method.String()
		attrs[AttrOrigLen] = strconv.Itoa(res.Info.OrigLen)
		return Event{Data: frame, Attrs: attrs}, true
	})
	if err != nil {
		return nil, err
	}
	// Feedback path: consumers report goodput via attributes; feed the
	// engine's monitor.
	derived.WatchAttrs(func(key, value string) {
		if key != AttrGoodput {
			return
		}
		if rate, err := strconv.ParseFloat(value, 64); err == nil {
			e.Monitor().ObserveRate(rate)
		}
	})
	return derived, nil
}

// DecodeEvent decompresses an event produced by DeriveCompressed. reg may
// be nil for built-in methods.
func DecodeEvent(ev Event, reg *codec.Registry) ([]byte, codec.BlockInfo, error) {
	if m, ok := ev.Attrs[AttrMethod]; ok && m == codec.None.String() {
		// Either an uncompressed fallback or a raw frame; try the frame
		// first, fall back to the raw payload.
		if data, info, err := codec.NewFrameReader(bytes.NewReader(ev.Data), reg).ReadBlock(); err == nil {
			return data, info, nil
		}
		return ev.Data, codec.BlockInfo{Method: codec.None, OrigLen: len(ev.Data), CompLen: len(ev.Data)}, nil
	}
	return codec.NewFrameReader(bytes.NewReader(ev.Data), reg).ReadBlock()
}

// SubscribeDecompressed subscribes fn to a compressed channel, transparently
// decoding payloads and reporting goodput feedback upstream every
// feedbackEvery events (0 disables feedback). It returns the subscription.
func SubscribeDecompressed(ch *EventChannel, reg *codec.Registry, feedbackEvery int, fn func(data []byte, info codec.BlockInfo)) *Subscription {
	var (
		count     int
		bytesAcc  int64
		lastStamp = time.Now()
	)
	return ch.Subscribe(func(ev Event) {
		data, info, err := DecodeEvent(ev, reg)
		if err != nil {
			// Corrupt events are dropped; the frame CRC already localizes
			// the fault.
			return
		}
		fn(data, info)
		if feedbackEvery <= 0 {
			return
		}
		count++
		bytesAcc += int64(info.CompLen)
		if count%feedbackEvery == 0 {
			elapsed := time.Since(lastStamp)
			lastStamp = time.Now()
			if elapsed > 0 && bytesAcc > 0 {
				rate := float64(bytesAcc) / elapsed.Seconds()
				ch.SetAttr(AttrGoodput, fmt.Sprintf("%.0f", rate))
				bytesAcc = 0
			}
		}
	})
}
