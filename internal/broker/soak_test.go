package broker

import (
	"context"
	"errors"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/governor"
	"ccx/internal/testx"
)

// soakSubscribers is the swarm size for the overload soak; CCX_SOAK_SUBS
// overrides it (CI's soak-smoke job runs the full 1000, -short trims it so
// the default test run stays fast).
func soakSubscribers(t *testing.T) int {
	n := 1000
	if testing.Short() {
		n = 64
	}
	if s := os.Getenv("CCX_SOAK_SUBS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("CCX_SOAK_SUBS = %q: want a positive integer", s)
		}
		n = v
	}
	return n
}

// TestSoakOverloadGovernor is the overload soak: a memory-capped broker is
// driven past its byte budget by a swarm of stalled subscribers. It must
// go critical, refuse new admissions with RETRY-AFTER, degrade the method
// ladder under CPU pressure, shed the whole stalled swarm in bounded
// per-sample steps, come back under its budget, and restore the full
// method set and open admission once pressure subsides — all without
// leaking a single goroutine or shared-frame reference. Sampling is driven
// through SampleNow so every pressure step is deterministic; each call
// stands in for one governor interval.
func TestSoakOverloadGovernor(t *testing.T) {
	subs := soakSubscribers(t)
	guard := testx.GoroutineGuard(t, 10)

	const budget = 2 << 20
	b := newTestBroker(t, func(c *Config) {
		c.QueueLen = 16
		c.Policy = DropOldest // shedding is the governor's job here
		c.ReplayBlocks = 16
		c.ReplayBytes = 1 << 20
		c.RetryAfter = 500 * time.Millisecond
		c.Governor = &governor.Config{MemBudget: -1, BytesBudget: budget, Interval: time.Hour}
	})
	gov := b.Governor()
	met := b.Metrics()

	// Phase 1: the swarm attaches and stalls (nobody reads), so every
	// queue backs up holding shared-frame references.
	clients := make([]net.Conn, 0, subs)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < subs; i++ {
		client, server := net.Pipe()
		b.HandleConn(server)
		if err := HandshakeSubscribe(client, "md"); err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
		clients = append(clients, client)
	}
	if got := b.Subscribers(); got != subs {
		t.Fatalf("attached %d subscribers, want %d", got, subs)
	}

	// Phase 2: drive past the budget. Incompressible 64 KiB blocks pin
	// shared frames in every stalled queue and fill the replay window.
	rng := testx.Rand(t)
	block := make([]byte, 64<<10)
	for i := 0; i < 40; i++ {
		rng.Read(block)
		if err := b.Publish("md", block); err != nil {
			t.Fatal(err)
		}
	}
	// Every publish must also be through the encode pipeline: each notes its
	// own (tiny) pipeline wait, and one landing among the saturated waits
	// noted below would pull the CPU signal back under critical.
	testx.WaitUntil(t, "queued bytes past the critical fraction", func() bool {
		return b.plane.HeldBytes() >= budget*9/10 && met.Counter("encplane.encodes").Value() >= 40
	})

	// Phase 3: overload. One sample flips the governor critical.
	snap := gov.SampleNow()
	if snap.Mem != governor.LevelCritical {
		t.Fatalf("mem = %v (queued %d / budget %d), want critical", snap.Mem, snap.Queued, budget)
	}
	if v := met.Gauge("governor.level").Value(); v != int64(governor.LevelCritical) {
		t.Fatalf("governor.level gauge = %d, want critical", v)
	}

	// Admission control: while the memory level reads critical, a new
	// subscriber is refused with the configured RETRY-AFTER instead of
	// being accepted and immediately shed.
	refused, server := net.Pipe()
	b.HandleConn(server)
	err := HandshakeSubscribe(refused, "md")
	refused.Close()
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter != 500*time.Millisecond {
		t.Fatalf("subscribe under pressure = %v, want OverloadError with 500ms retry", err)
	}
	if met.Counter("broker.admission_refused").Value() < 1 ||
		met.Counter("governor.shed_subscribes").Value() < 1 {
		t.Fatal("admission refusal not recorded in metrics")
	}

	// Degradation: sustained pipeline waits push CPU critical, capping the
	// method ladder at Huffman on every subscriber path. The signal is
	// an EWMA, so it takes a short run of saturated observations.
	for i := 0; i < 8; i++ {
		gov.NotePipeWait(250 * time.Millisecond)
	}
	if snap = gov.SampleNow(); snap.CPU != governor.LevelCritical {
		t.Fatalf("cpu = %v after sustained 250ms pipeline waits, want critical", snap.CPU)
	}
	if max, cause, ok := gov.CapMethod(); !ok || max != codec.Huffman || cause != "cpu critical" {
		t.Fatalf("CapMethod = (%v, %q, %v), want huffman cap for cpu critical", max, cause, ok)
	}

	// Phase 4: shedding. Each critical sample evicts at most
	// maxShedPerSample of the deepest queues, so the swarm drains in
	// bounded steps until the memory dimension clears.
	for i := 0; b.Subscribers() > 0 && i < subs/maxShedPerSample+20; i++ {
		gov.SampleNow()
	}
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("%d stalled subscribers still attached after shed loop", got)
	}
	if n := met.Counter("governor.shed_evictions").Value(); n != int64(subs) {
		t.Fatalf("shed_evictions = %d, want the whole swarm (%d)", n, subs)
	}
	// Eviction teardown is asynchronous (dying write loops still hold frame
	// references for a beat), so wait for the steady state below the
	// ok-level down threshold (ElevatedFrac × DownFrac = 0.585 of budget),
	// not merely under the budget — the recovery phase asserts the very
	// next sample steps to ok.
	testx.WaitUntil(t, "queued bytes back under the ok threshold", func() bool {
		return b.plane.HeldBytes() <= budget*117/200
	})

	// Phase 5: recovery. The memory dimension steps down on the first calm
	// sample (Hold = 1 — within one governor interval of the load ending);
	// the CPU EWMA decays over a few more idle samples.
	if snap = gov.SampleNow(); snap.Mem != governor.LevelOK {
		t.Fatalf("mem = %v on the first calm sample (queued %d), want ok", snap.Mem, snap.Queued)
	}
	for i := 0; gov.Level() != governor.LevelOK && i < 40; i++ {
		gov.SampleNow()
	}
	if gov.Level() != governor.LevelOK {
		t.Fatalf("level = %v after idle decay, want ok", gov.Level())
	}
	if _, _, ok := gov.CapMethod(); ok {
		t.Fatal("method cap still active after recovery: full method set not restored")
	}
	if v := met.Gauge("governor.level").Value(); v != int64(governor.LevelOK) {
		t.Fatalf("governor.level gauge = %d after recovery, want ok", v)
	}

	// Admission is open again.
	conn := attachSubscriber(t, b, "md")
	conn.Close()
	testx.WaitUntil(t, "recovery subscriber torn down", func() bool { return b.Subscribers() == 0 })

	// Phase 6: teardown proves nothing leaked — no goroutines beyond the
	// baseline, no live shared-frame references once the windows are purged.
	for _, c := range clients {
		c.Close()
	}
	clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	testx.NoLeakedFrames(t, b.plane)
	guard()

	testx.DumpMetrics(t, "overload-soak", met)
}
