package broker

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"ccx/internal/metrics"
)

// The sharded channel core (DESIGN.md §15). One broker-wide mutex and one
// inline plane publish per block made the channel path the scaling
// bottleneck once encode itself went parallel: every publisher serialized
// behind every other publisher's probe + pipeline submit, and every
// subscriber join/leave fought the same registry lock. The shard set
// splits that state across GOMAXPROCS-aligned event loops:
//
//   - each channel is homed on exactly one shard, by a hash of its name;
//   - the fan-out half of a publish (probe, pipeline submit) runs as a
//     task on the channel's home loop, so a publisher's read loop overlaps
//     the previous block's fan-out instead of waiting for it. Per-channel
//     order is preserved because one channel always runs on one loop; the
//     encode plane's per-channel mu/pipeMu remain the shard-level locks
//     below it (broker lock order: channelState.mu → shard dispatch →
//     plane locks; tasks themselves take no broker locks);
//   - the subscriber registry is sharded the same way: a subscriber
//     registers on its channel's home shard, so attach/detach storms
//     update per-shard maps instead of one global one, and the governor's
//     byte ledgers and shed/breaker accounting aggregate per shard —
//     summed exactly, never sampled (governor.Config.QueuedBytesByShard).
//
// shardTaskBuf bounds each loop's task queue: enqueueing blocks once the
// loop falls this many publishes behind, which keeps publisher
// backpressure intact (a publisher cannot buffer unbounded blocks into a
// stalled loop).
const shardTaskBuf = 128

// MaxShards bounds Config.Shards; past this, loop scheduling overhead
// dwarfs any lock-splitting win.
const MaxShards = 256

// shard is one event loop plus the registry slice homed on it.
type shard struct {
	id    int
	tasks chan func()
	quit  chan struct{}

	// closeMu orders dispatch against close: dispatchers enqueue under
	// RLock after checking closed, close sets closed under Lock — so every
	// do() that returned true enqueued before the drain starts, and its
	// task is guaranteed to run.
	closeMu sync.RWMutex
	closed  bool

	// smu guards this shard's subscriber registry and channel list.
	smu    sync.Mutex
	subs   map[int]*subscriber
	states []*channelState

	subsG    *metrics.Gauge   // broker.shard.<i>.subscribers
	queuedG  *metrics.Gauge   // broker.shard.<i>.queued_bytes
	tasksC   *metrics.Counter // broker.shard.<i>.tasks
	shedC    *metrics.Counter // broker.shard.<i>.shed_evictions
	breakerC *metrics.Counter // broker.shard.<i>.breaker_trips
}

// shardSet owns the broker's event loops. len(shards) is a power of two so
// homing is a mask, not a mod.
type shardSet struct {
	shards []*shard
	mask   uint32
	wg     sync.WaitGroup
}

// alignShards resolves Config.Shards: explicit positive counts are rounded
// up to a power of two (the homing mask needs one); 0 aligns to GOMAXPROCS
// the same way. 1 is the degenerate single-loop broker TestSwarmByteIdentity
// compares the sharded one against.
func alignShards(configured int) (int, error) {
	if configured < 0 {
		return 0, fmt.Errorf("broker: negative shard count %d", configured)
	}
	if configured > MaxShards {
		return 0, fmt.Errorf("broker: shard count %d exceeds MaxShards %d", configured, MaxShards)
	}
	want := configured
	if want == 0 {
		want = runtime.GOMAXPROCS(0)
		if want > MaxShards {
			want = MaxShards
		}
	}
	n := 1
	for n < want {
		n <<= 1
	}
	return n, nil
}

func newShardSet(n int, met *metrics.Registry) *shardSet {
	ss := &shardSet{shards: make([]*shard, n), mask: uint32(n - 1)}
	met.Gauge("broker.shards").Set(int64(n))
	for i := range ss.shards {
		sh := &shard{
			id:    i,
			tasks: make(chan func(), shardTaskBuf),
			quit:  make(chan struct{}),
			subs:  make(map[int]*subscriber),

			subsG:    met.Gauge(fmt.Sprintf("broker.shard.%d.subscribers", i)),
			queuedG:  met.Gauge(fmt.Sprintf("broker.shard.%d.queued_bytes", i)),
			tasksC:   met.Counter(fmt.Sprintf("broker.shard.%d.tasks", i)),
			shedC:    met.Counter(fmt.Sprintf("broker.shard.%d.shed_evictions", i)),
			breakerC: met.Counter(fmt.Sprintf("broker.shard.%d.breaker_trips", i)),
		}
		ss.shards[i] = sh
		ss.wg.Add(1)
		go sh.loop(&ss.wg)
	}
	return ss
}

// forChannel homes a channel: FNV-1a of its name, masked onto the loop
// array. Deterministic, so a channel keeps its home for the broker's
// lifetime — the ordering guarantee rests on that.
func (ss *shardSet) forChannel(name string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return ss.shards[h.Sum32()&ss.mask]
}

// loop runs tasks in FIFO order until quit, then drains what close()
// guaranteed was already enqueued.
func (sh *shard) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fn := <-sh.tasks:
			sh.tasksC.Inc()
			fn()
		case <-sh.quit:
			for {
				select {
				case fn := <-sh.tasks:
					sh.tasksC.Inc()
					fn()
				default:
					return
				}
			}
		}
	}
}

// do enqueues one task, reporting false once the set is closed. A true
// return guarantees the task will run: the enqueue completed under the
// RLock, and close() cannot mark the shard closed (let alone start the
// drain) until every in-flight RLock is released. The channel send may
// block when the loop is shardTaskBuf behind — that is the publisher
// backpressure, and it cannot deadlock close() because the loop keeps
// consuming until quit.
func (sh *shard) do(fn func()) bool {
	sh.closeMu.RLock()
	if sh.closed {
		sh.closeMu.RUnlock()
		return false
	}
	sh.tasks <- fn
	sh.closeMu.RUnlock()
	return true
}

// register adds a subscriber to its home shard's registry.
func (sh *shard) register(s *subscriber) {
	sh.smu.Lock()
	sh.subs[s.id] = s
	sh.smu.Unlock()
	sh.subsG.Add(1)
}

// deregister removes a subscriber, reporting whether it was present.
func (sh *shard) deregister(id int) bool {
	sh.smu.Lock()
	_, ok := sh.subs[id]
	if ok {
		delete(sh.subs, id)
	}
	sh.smu.Unlock()
	if ok {
		sh.subsG.Add(-1)
	}
	return ok
}

// addState homes a channel state on this shard.
func (sh *shard) addState(st *channelState) {
	sh.smu.Lock()
	sh.states = append(sh.states, st)
	sh.smu.Unlock()
}

// snapshotSubs copies the shard's live subscribers.
func (sh *shard) snapshotSubs() []*subscriber {
	sh.smu.Lock()
	out := make([]*subscriber, 0, len(sh.subs))
	for _, s := range sh.subs {
		out = append(out, s)
	}
	sh.smu.Unlock()
	return out
}

// queuedBytes is this shard's slice of the governor ledger: replay-ring
// payload plus live shared-frame wire bytes, summed over the channels
// homed here. Channel frame accounting updates per-channel and plane
// totals atomically together (encplane.noteBytes), so shard ledgers summed
// across the set equal the global ledger exactly.
func (sh *shard) queuedBytes() int64 {
	sh.smu.Lock()
	states := append([]*channelState(nil), sh.states...)
	sh.smu.Unlock()
	var total int64
	for _, st := range states {
		st.mu.Lock()
		total += st.ring.bytes
		st.mu.Unlock()
		total += st.plane.LiveBytes()
	}
	sh.queuedG.Set(total)
	return total
}

// subscribers reports the shard's registry size.
func (sh *shard) subscribers() int {
	sh.smu.Lock()
	defer sh.smu.Unlock()
	return len(sh.subs)
}

// close stops every loop: mark closed (no dispatch can start a new
// enqueue), then signal quit and wait for the drains. Tasks enqueued by a
// do() that returned true are all executed before close returns.
func (ss *shardSet) close() {
	for _, sh := range ss.shards {
		sh.closeMu.Lock()
		sh.closed = true
		sh.closeMu.Unlock()
	}
	for _, sh := range ss.shards {
		close(sh.quit)
	}
	ss.wg.Wait()
}
