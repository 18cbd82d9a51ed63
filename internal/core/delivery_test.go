package core

import (
	"bytes"
	"io"
	"testing"

	"ccx/internal/codec"
	"ccx/internal/metrics"
	"ccx/internal/tracing"
)

func TestDeliveryTrackerContiguous(t *testing.T) {
	var tr DeliveryTracker
	for seq := uint64(1); seq <= 5; seq++ {
		deliver, gap := tr.Observe(seq)
		if !deliver || gap != 0 {
			t.Fatalf("Observe(%d) = (%v, %d), want (true, 0)", seq, deliver, gap)
		}
	}
	st := tr.Stats()
	if st.Delivered != 5 || st.Dups != 0 || st.GapEvents != 0 || st.Last != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliveryTrackerDuplicates(t *testing.T) {
	var tr DeliveryTracker
	tr.Observe(1)
	tr.Observe(2)
	tr.Observe(3)
	for _, seq := range []uint64{1, 2, 3, 3} {
		deliver, gap := tr.Observe(seq)
		if deliver || gap != 0 {
			t.Fatalf("replayed Observe(%d) = (%v, %d), want (false, 0)", seq, deliver, gap)
		}
	}
	if st := tr.Stats(); st.Dups != 4 || st.Delivered != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliveryTrackerGap(t *testing.T) {
	var tr DeliveryTracker
	tr.Observe(1)
	deliver, gap := tr.Observe(5)
	if !deliver || gap != 3 {
		t.Fatalf("Observe(5) after 1 = (%v, %d), want (true, 3)", deliver, gap)
	}
	st := tr.Stats()
	if st.GapEvents != 1 || st.GapBlocks != 3 || st.Last != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliveryTrackerMidStreamJoin(t *testing.T) {
	// A fresh subscriber joining live starts wherever the channel is; that
	// first block is a join point, not a loss.
	var tr DeliveryTracker
	deliver, gap := tr.Observe(100)
	if !deliver || gap != 0 {
		t.Fatalf("first Observe(100) = (%v, %d), want (true, 0)", deliver, gap)
	}
	if st := tr.Stats(); st.GapEvents != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliveryTrackerNoteGapAndSkipTo(t *testing.T) {
	var tr DeliveryTracker
	tr.Observe(1)
	tr.Observe(2)
	// Broker says: window starts at 7, so 3..6 are gone. The client accounts
	// the gap out-of-band and advances the cursor so block 7 does not count
	// a second discontinuity.
	tr.NoteGap(4)
	tr.SkipTo(7)
	deliver, gap := tr.Observe(7)
	if !deliver || gap != 0 {
		t.Fatalf("Observe(7) after SkipTo(7) = (%v, %d), want (true, 0)", deliver, gap)
	}
	st := tr.Stats()
	if st.GapEvents != 1 || st.GapBlocks != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// SkipTo never rewinds.
	tr.SkipTo(3)
	if last, _ := tr.LastDelivered(); last != 7 {
		t.Fatalf("LastDelivered after rewind attempt = %d, want 7", last)
	}
	// NoteGap(0) is a no-op.
	tr.NoteGap(0)
	if st := tr.Stats(); st.GapEvents != 1 {
		t.Fatalf("NoteGap(0) counted: %+v", st)
	}
}

func TestDeliveryTrackerLastDelivered(t *testing.T) {
	var tr DeliveryTracker
	if _, ok := tr.LastDelivered(); ok {
		t.Fatal("fresh tracker reports started")
	}
	tr.Observe(9)
	last, ok := tr.LastDelivered()
	if !ok || last != 9 {
		t.Fatalf("LastDelivered = (%d, %v), want (9, true)", last, ok)
	}
}

// seqStream frames each payload as a sequenced frame with the given
// sequence numbers.
func seqStream(t *testing.T, payloads [][]byte, seqs []uint64) []byte {
	t.Helper()
	var buf []byte
	for i, p := range payloads {
		var err error
		buf, _, err = codec.AppendFrameOpts(buf, nil, codec.None, p, codec.FrameOpts{Seq: seqs[i], HasSeq: true})
		if err != nil {
			t.Fatalf("AppendFrameOpts: %v", err)
		}
	}
	return buf
}

func TestReaderSuppressesDuplicates(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"), []byte("bravo"), []byte("bravo"), []byte("charlie"),
	}
	stream := seqStream(t, payloads, []uint64{1, 2, 2, 3})

	var tr DeliveryTracker
	reg := metrics.NewRegistry()
	tracer := tracing.New("test", 0, 16)
	r := NewReader(bytes.NewReader(stream), nil, nil)
	r.SetDeliveryTracker(&tr)
	r.SetTelemetry(Telemetry{Metrics: reg, Tracer: tracer})

	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if want := "alphabravocharlie"; string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if st := tr.Stats(); st.Dups != 1 || st.Delivered != 3 {
		t.Fatalf("tracker stats = %+v", st)
	}
	if v := reg.Counter("ccx.rx_dup_frames").Value(); v != 1 {
		t.Fatalf("rx_dup_frames = %d, want 1", v)
	}
	// Nothing here is sampled: the one span is the always-on dup.
	spans := tracer.Ring().Recent(0)
	if len(spans) != 1 || spans[0].Stage != tracing.StageDup || spans[0].Seq != 2 || !spans[0].Anomaly {
		t.Fatalf("ring = %+v, want one dup span at seq 2", spans)
	}
}

func TestReaderAccountsGaps(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("five")}
	stream := seqStream(t, payloads, []uint64{1, 5})

	var tr DeliveryTracker
	reg := metrics.NewRegistry()
	tracer := tracing.New("test", 0, 16)
	r := NewReader(bytes.NewReader(stream), nil, nil)
	r.SetDeliveryTracker(&tr)
	r.SetTelemetry(Telemetry{Metrics: reg, Tracer: tracer})

	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	// The gapped block is still delivered — the gap is accounted, not hidden.
	if want := "onefive"; string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if v := reg.Counter("ccx.rx_gap_events").Value(); v != 1 {
		t.Fatalf("rx_gap_events = %d, want 1", v)
	}
	if v := reg.Counter("ccx.rx_gap_blocks").Value(); v != 3 {
		t.Fatalf("rx_gap_blocks = %d, want 3", v)
	}
	// The gap span's Bytes is the count of blocks lost before seq 5.
	spans := tracer.Ring().Recent(0)
	if len(spans) != 1 || spans[0].Stage != tracing.StageGap || spans[0].Seq != 5 || spans[0].Bytes != 3 || !spans[0].Anomaly {
		t.Fatalf("ring = %+v, want one gap span: 3 blocks before seq 5", spans)
	}
}

func TestReaderUnsequencedFramesBypassTracker(t *testing.T) {
	var buf []byte
	var err error
	buf, _, err = codec.AppendFrameOpts(buf, nil, codec.None, []byte("plain"), codec.FrameOpts{})
	if err != nil {
		t.Fatalf("AppendFrameOpts: %v", err)
	}
	var tr DeliveryTracker
	r := NewReader(bytes.NewReader(buf), nil, nil)
	r.SetDeliveryTracker(&tr)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "plain" {
		t.Fatalf("got %q", got)
	}
	if _, started := tr.LastDelivered(); started {
		t.Fatal("unsequenced frame touched the tracker")
	}
}
