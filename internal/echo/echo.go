// Package echo implements an event-based communication middleware modelled
// on ECho (Eisenhauer & Schwan, ref [34]), the system the paper integrates
// configurable compression into (§3). It provides:
//
//   - Event channels with anonymous publish/subscribe: producers submit
//     events to a channel; only that channel's subscribers see them.
//   - Derived channels: a consumer-side operation that instantiates a
//     handler over an existing channel's event stream at runtime, creating
//     a new channel carrying the transformed events (§3.2's mechanism for
//     deploying compression methods without re-engineering producers).
//   - Globally named quality attributes on channels, which transport
//     monitoring data and dynamic change instructions across layers and
//     address spaces (§3.1).
//   - A transport encapsulation layer (see Bridge) that multiplexes many
//     channels over a single connection.
//   - The §3.2 compression handlers (compress.go): DeriveCompressed runs a
//     core.Engine as the handler of a derived channel, and
//     SubscribeDecompressed decodes on the consumer side and reports goodput
//     upstream as a quality attribute.
//
// Event delivery within a domain is synchronous and in subscription order,
// which keeps middleware behaviour deterministic under test; cross-address-
// space delivery via Bridge is asynchronous, as in the original system.
package echo

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// Common errors.
var (
	ErrChannelExists = errors.New("echo: channel already exists")
	ErrChannelClosed = errors.New("echo: channel closed")
)

// Attributes are the globally named, interpreted quality attributes of
// §3.1: small string-keyed metadata that rides with events and channels.
type Attributes map[string]string

// Clone returns a copy of a (nil stays nil).
func (a Attributes) Clone() Attributes { return maps.Clone(a) }

// Event is one unit of exchange: an opaque payload plus quality attributes.
type Event struct {
	Data  []byte
	Attrs Attributes
}

// Handler transforms events on a derived channel. Returning false drops the
// event ("handlers ... can even prevent events from being transported").
type Handler func(Event) (Event, bool)

// ConsumerFunc receives delivered events.
type ConsumerFunc func(Event)

// Domain is one address space's view of the channel namespace.
type Domain struct {
	mu       sync.RWMutex
	channels map[string]*EventChannel
}

// NewDomain returns an empty domain.
func NewDomain() *Domain {
	return &Domain{channels: make(map[string]*EventChannel)}
}

// CreateChannel makes a new channel; it fails if the name is taken.
func (d *Domain) CreateChannel(name string) (*EventChannel, error) {
	if name == "" {
		return nil, errors.New("echo: channel needs a name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.channels[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrChannelExists, name)
	}
	ch := newChannel(d, name)
	d.channels[name] = ch
	return ch, nil
}

// OpenChannel returns the named channel, creating it if needed — the
// "registering with appropriate sets of events" entry point for new
// participants.
func (d *Domain) OpenChannel(name string) *EventChannel {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ch, ok := d.channels[name]; ok {
		return ch
	}
	ch := newChannel(d, name)
	d.channels[name] = ch
	return ch
}

// Channel looks up a channel without creating it.
func (d *Domain) Channel(name string) (*EventChannel, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ch, ok := d.channels[name]
	return ch, ok
}

// Channels lists channel names in sorted order.
func (d *Domain) Channels() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.channels))
	for name := range d.channels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// remove unregisters a closed channel.
func (d *Domain) remove(name string) {
	d.mu.Lock()
	delete(d.channels, name)
	d.mu.Unlock()
}

// Subscription is one consumer's registration on a channel.
type Subscription struct {
	ch    *EventChannel
	fn    ConsumerFunc
	owner any // origin tag; deliveries from the same origin are skipped
}

// Cancel unsubscribes. It is safe to call more than once.
func (s *Subscription) Cancel() {
	s.ch.mu.Lock()
	defer s.ch.mu.Unlock()
	s.ch.subs = slices.DeleteFunc(s.ch.subs, func(x *Subscription) bool { return x == s })
}

// AttrWatch is one observer of a channel's attribute updates.
type AttrWatch struct {
	ch    *EventChannel
	fn    func(key, value string)
	owner any // origin tag; updates from the same origin are skipped
}

// Cancel stops the watch. It is safe to call more than once.
func (w *AttrWatch) Cancel() {
	w.ch.mu.Lock()
	defer w.ch.mu.Unlock()
	w.ch.watchers = slices.DeleteFunc(w.ch.watchers, func(x *AttrWatch) bool { return x == w })
}

// EventChannel is a distributed event stream endpoint.
type EventChannel struct {
	domain *Domain
	name   string

	mu       sync.RWMutex
	closed   bool
	subs     []*Subscription // in subscription order
	attrs    Attributes
	watchers []*AttrWatch // in registration order

	deriveSource *Subscription // set on derived channels
}

func newChannel(d *Domain, name string) *EventChannel {
	return &EventChannel{domain: d, name: name, attrs: make(Attributes)}
}

// Name returns the channel's global name.
func (ch *EventChannel) Name() string { return ch.name }

// Subscribe registers fn to receive every event submitted to the channel.
func (ch *EventChannel) Subscribe(fn ConsumerFunc) *Subscription {
	return ch.subscribeFrom(nil, fn)
}

func (ch *EventChannel) subscribeFrom(owner any, fn ConsumerFunc) *Subscription {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	sub := &Subscription{ch: ch, fn: fn, owner: owner}
	ch.subs = append(ch.subs, sub)
	return sub
}

// Subscribers reports the current subscription count (including derived
// channels and bridges).
func (ch *EventChannel) Subscribers() int {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return len(ch.subs)
}

// Submit publishes an event to all subscribers. Delivery is synchronous and
// in subscription order. Submitting on a closed channel returns an error.
func (ch *EventChannel) Submit(ev Event) error {
	return ch.submitFrom(nil, ev)
}

// submitFrom publishes, skipping subscriptions owned by origin — the loop
// guard that lets bridges both import and export the same channel.
func (ch *EventChannel) submitFrom(origin any, ev Event) error {
	ch.mu.RLock()
	if ch.closed {
		ch.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrChannelClosed, ch.name)
	}
	targets := make([]*Subscription, 0, len(ch.subs))
	for _, sub := range ch.subs {
		if origin != nil && sub.owner == origin {
			continue
		}
		targets = append(targets, sub)
	}
	ch.mu.RUnlock()
	for _, sub := range targets {
		sub.fn(ev)
	}
	return nil
}

// Derive creates a new channel carrying this channel's events transformed
// by handler — the consumer-initiated dynamic handler instantiation of
// §3.2. The derived channel lives in the same domain under the given name.
func (ch *EventChannel) Derive(name string, handler Handler) (*EventChannel, error) {
	if handler == nil {
		return nil, errors.New("echo: derive needs a handler")
	}
	derived, err := ch.domain.CreateChannel(name)
	if err != nil {
		return nil, err
	}
	src := ch.Subscribe(func(ev Event) {
		out, ok := handler(ev)
		if !ok {
			return
		}
		// Best effort: a closed derived channel just stops the flow.
		_ = derived.Submit(out)
	})
	derived.mu.Lock()
	derived.deriveSource = src
	derived.mu.Unlock()
	return derived, nil
}

// SetAttr publishes a quality attribute on the channel and notifies
// watchers. Attributes cross address spaces when the channel is bridged.
func (ch *EventChannel) SetAttr(key, value string) {
	ch.setAttrFrom(nil, key, value)
}

func (ch *EventChannel) setAttrFrom(origin any, key, value string) {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.attrs[key] = value
	targets := make([]*AttrWatch, 0, len(ch.watchers))
	for _, w := range ch.watchers {
		if origin != nil && w.owner == origin {
			continue
		}
		targets = append(targets, w)
	}
	ch.mu.Unlock()
	for _, w := range targets {
		w.fn(key, value)
	}
}

// Attr reads a quality attribute.
func (ch *EventChannel) Attr(key string) (string, bool) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	v, ok := ch.attrs[key]
	return v, ok
}

// Attrs returns a snapshot of all attributes.
func (ch *EventChannel) Attrs() Attributes {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return ch.attrs.Clone()
}

// WatchAttrs registers fn for every subsequent attribute update.
func (ch *EventChannel) WatchAttrs(fn func(key, value string)) *AttrWatch {
	return ch.watchAttrsFrom(nil, fn)
}

func (ch *EventChannel) watchAttrsFrom(owner any, fn func(key, value string)) *AttrWatch {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	w := &AttrWatch{ch: ch, fn: fn, owner: owner}
	ch.watchers = append(ch.watchers, w)
	return w
}

// Close shuts the channel: subscribers are dropped, submissions fail, and a
// derived channel detaches from its source.
func (ch *EventChannel) Close() error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	ch.closed = true
	src := ch.deriveSource
	ch.subs = nil
	ch.watchers = nil
	ch.mu.Unlock()
	if src != nil {
		src.Cancel()
	}
	ch.domain.remove(ch.name)
	return nil
}
