package zvol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/compress"
)

// prepPair builds a source volume with several objects (dedup'd shared
// content, compressible and random runs, holes), snapshots it, and
// returns the source plus the full stream for s1.
func prepPair(t *testing.T) (*Volume, *Stream) {
	t.Helper()
	src, _ := pair(t)
	if _, err := src.WriteObject("base", bytes.NewReader(mkData(7, 96*1024))); err != nil {
		t.Fatal(err)
	}
	// Same content under another name: dedup inside the stream.
	if _, err := src.WriteObject("clone", bytes.NewReader(mkData(7, 96*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteObject("other", bytes.NewReader(mkData(11, 64*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	return src, st
}

// assertIdenticalReplicas compares two volumes down to block-pointer
// level: object tables, every pointer field including disk addresses,
// materialized bytes, volume stats, and a clean scrub on both.
func assertIdenticalReplicas(t *testing.T, a, b *Volume) {
	t.Helper()
	if got, want := b.Objects(), a.Objects(); !reflect.DeepEqual(got, want) {
		t.Fatalf("object sets differ: %v vs %v", got, want)
	}
	a.mu.RLock()
	b.mu.RLock()
	for name, ao := range a.objects {
		bo := b.objects[name]
		if bo == nil || !reflect.DeepEqual(ao.ptrs, bo.ptrs) {
			a.mu.RUnlock()
			b.mu.RUnlock()
			t.Fatalf("block pointers differ for %s:\n  receive:  %+v\n  prepared: %+v", name, ao, bo)
		}
	}
	a.mu.RUnlock()
	b.mu.RUnlock()
	for _, name := range a.Objects() {
		da, err := a.ReadObject(name)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.ReadObject(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("materialized bytes differ for %s", name)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stats differ:\n  receive:  %+v\n  prepared: %+v", sa, sb)
	}
	ssa, ssb := a.StoreStats(), b.StoreStats()
	// The prepared receiver aliases stored payloads, and a torn+recovered
	// attempt leaves extra alloc/free history; occupancy, span, and the
	// per-pointer addresses compared above must still match exactly.
	ssa.Shared, ssb.Shared = 0, 0
	ssa.Allocs, ssb.Allocs = 0, 0
	ssa.Frees, ssb.Frees = 0, 0
	if !reflect.DeepEqual(ssa, ssb) {
		t.Fatalf("store stats differ:\n  receive:  %+v\n  prepared: %+v", ssa, ssb)
	}
	if rep := b.Scrub(); !rep.Clean() {
		t.Fatalf("prepared replica failed scrub: %+v", rep)
	}
}

func TestReceivePreparedMatchesReceive(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)

	plain, _ := pair(t)
	prepped, _ := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, prepped)
	if prepped.StoreStats().Shared == 0 {
		t.Fatal("prepared receive did not alias any stored payloads")
	}

	// Incremental stream on top: both paths again.
	if _, err := src.WriteObject("delta", bytes.NewReader(mkData(23, 48*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s2", day(1)); err != nil {
		t.Fatal(err)
	}
	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	pinc := src.Prepare(inc)
	if err := plain.Receive(inc); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(pinc); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, prepped)
}

// Two receivers of the same prepared stream alias the same stored bytes;
// rotting one replica must copy-on-write and leave the other intact.
func TestReceivePreparedCopyOnWrite(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	a, b := pair(t)
	if err := a.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if err := b.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptStoredBlock("base", 0, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	if rep := a.Scrub(); rep.Clean() {
		t.Fatal("corruption on a vanished")
	}
	if rep := b.Scrub(); !rep.Clean() {
		t.Fatalf("corruption on a leaked into b via the shared payload: %+v", rep)
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("b's content changed after a was corrupted")
	}
}

func TestReceivePreparedVerification(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	dst, _ := pair(t)

	short := &PreparedStream{Stream: st, Blocks: ps.Blocks[:len(ps.Blocks)-1]}
	if err := dst.ReceivePrepared(short); !errors.Is(err, ErrBadStream) {
		t.Fatalf("block-count mismatch: %v", err)
	}
	bad := &PreparedStream{Stream: st, Blocks: append([]PreparedBlock(nil), ps.Blocks...)}
	bad.Blocks[0].Hash[0] ^= 0xFF
	if err := dst.ReceivePrepared(bad); !errors.Is(err, ErrBadStream) {
		t.Fatalf("hash mismatch: %v", err)
	}
	if err := dst.ReceivePrepared(nil); !errors.Is(err, ErrBadStream) {
		t.Fatalf("nil prepared stream: %v", err)
	}
	if len(dst.Objects()) != 0 || len(dst.Snapshots()) != 0 {
		t.Fatal("failed prepared receives left state behind")
	}
	if err := dst.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
}

// The torn-apply crash lane works identically through the prepared path:
// an armed crash point tears the apply, Recover rolls back to the exact
// pre-receive state, and the same prepared stream then applies cleanly.
func TestReceivePreparedTornApplyRecovers(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	dst, _ := pair(t)
	before := snapshotState(t, dst)
	dst.SetReceiveCrashPoint(1)
	if err := dst.ReceivePrepared(ps); !errors.Is(err, ErrTorn) {
		t.Fatalf("armed crash point: %v", err)
	}
	if !dst.NeedsRecovery() {
		t.Fatal("torn receive left no open journal")
	}
	dst.Recover()
	if !sameState(before, snapshotState(t, dst)) {
		t.Fatal("recovery did not restore the pre-receive state")
	}
	if err := dst.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	plain, _ := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, dst)
}

// countingCodec counts Compress calls, telling Prepare's reuse of the
// stored form apart from its fallback to the codec.
type countingCodec struct {
	compress.Codec
	compresses int
}

func (c *countingCodec) Compress(src []byte) []byte {
	c.compresses++
	return c.Codec.Compress(src)
}

func countCompresses(v *Volume) *countingCodec {
	cc := &countingCodec{Codec: v.codec}
	v.codec = cc
	return cc
}

// Every shipped block of a stream sent from the preparing volume is
// stored there, so Prepare compresses nothing and the replica is still
// identical to one built by plain Receive.
func TestPrepareReusesStoredForm(t *testing.T) {
	src, st := prepPair(t)
	cc := countCompresses(src)
	ps := src.Prepare(st)
	if cc.compresses != 0 {
		t.Fatalf("Prepare compressed %d of %d blocks the volume already stores",
			cc.compresses, len(st.Blocks))
	}
	plain, prepped := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, prepped)
}

// A stored copy that rotted after Send must not be shipped: Prepare
// compresses the stream's verified logical bytes instead.
func TestPrepareFallsBackOnRottedStoredBlock(t *testing.T) {
	src, st := prepPair(t)
	if err := src.CorruptStoredBlock("base", 0, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	cc := countCompresses(src)
	ps := src.Prepare(st)
	if cc.compresses != 1 {
		t.Fatalf("Prepare compressed %d blocks, want only the rotted one", cc.compresses)
	}
	plain, prepped := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if rep := prepped.Scrub(); !rep.Clean() {
		t.Fatalf("replica prepared from a rotted source failed scrub: %+v", rep)
	}
	assertIdenticalReplicas(t, plain, prepped)
}

// Prepared payloads are copies: rotting every stored block on the source
// after the receive leaves the replica's bytes as they were.
func TestPreparedPayloadsDoNotAliasSource(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	dst, _ := pair(t)
	if err := dst.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	want := snapshotState(t, dst)
	rotted := map[uint64]bool{} // by address: a dedup'd block rots once
	for _, name := range src.Objects() {
		infos, err := src.BlockInfos(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bi := range infos {
			if bi.Zero || rotted[bi.Addr] {
				continue
			}
			rotted[bi.Addr] = true
			if err := src.store.Corrupt(bi.Addr, 0, 0xFF); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep := src.Scrub(); rep.Clean() {
		t.Fatal("rotting the source left it clean")
	}
	if rep := dst.Scrub(); !rep.Clean() {
		t.Fatalf("rot on the source reached the replica: %+v", rep)
	}
	if !sameState(want, snapshotState(t, dst)) {
		t.Fatal("replica bytes changed after the source rotted")
	}
}
