package zvol

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// mkStream builds a source volume with two snapshots and returns its
// incremental stream.
func mkStream(t testing.TB) *Stream {
	t.Helper()
	src, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	src.WriteObject("a", bytes.NewReader(mkData(50, 70*1024)))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(mkData(51, 50*1024)))
	src.DeleteObject("a")
	src.Snapshot("s2", day(1))
	st, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWireRoundTrip(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	n, err := st.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromSnap != st.FromSnap || got.ToSnap != st.ToSnap {
		t.Fatalf("snapshot names lost: %+v", got)
	}
	if !got.Created.Equal(st.Created) {
		t.Fatalf("created %v != %v", got.Created, st.Created)
	}
	if !reflect.DeepEqual(got.Deletes, st.Deletes) {
		t.Fatalf("deletes %v != %v", got.Deletes, st.Deletes)
	}
	if len(got.Blocks) != len(st.Blocks) {
		t.Fatalf("blocks %d != %d", len(got.Blocks), len(st.Blocks))
	}
	for i := range st.Blocks {
		if !bytes.Equal(got.Blocks[i], st.Blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.Upserts, st.Upserts) {
		t.Fatal("upserts differ")
	}
}

func TestWireDecodedStreamIsReceivable(t *testing.T) {
	// End-to-end: full stream + incremental stream survive the wire and
	// apply cleanly on a replica.
	src, _ := New(cfg(4096, "gzip6", true))
	dataA := mkData(60, 90*1024)
	dataB := mkData(61, 40*1024)
	src.WriteObject("a", bytes.NewReader(dataA))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(dataB))
	src.Snapshot("s2", day(1))

	dst, _ := New(cfg(4096, "gzip6", true))
	for _, pair := range [][2]string{{"", "s1"}, {"s1", "s2"}} {
		st, err := src.Send(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := st.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Receive(decoded); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string][]byte{"a": dataA, "b": dataB} {
		got, err := dst.ReadObject(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %s diverged after wire transfer: %v", name, err)
		}
	}
}

func TestWireDetectsCorruption(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	if _, err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		mut := append([]byte(nil), pristine...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		if _, err := DecodeStream(bytes.NewReader(mut)); err == nil {
			// A flip inside a block payload may decode structurally but
			// must then fail the CRC — err == nil means the checksum
			// missed it.
			t.Fatalf("trial %d: corruption not detected", trial)
		}
	}
}

func TestWireDetectsTruncation(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	st.Encode(&buf)
	data := buf.Bytes()
	for cut := 0; cut < len(data)-1; cut += 97 {
		if _, err := DecodeStream(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("????"),
		[]byte("SQRL\xFF\xFF"), // bad version
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for i, c := range cases {
		if _, err := DecodeStream(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	st := mkStream(b)
	var size int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		n, err := st.Encode(&buf)
		if err != nil {
			b.Fatal(err)
		}
		size = n
	}
	b.SetBytes(size)
}

func BenchmarkWireDecode(b *testing.B) {
	st := mkStream(b)
	var buf bytes.Buffer
	st.Encode(&buf)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStream(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireBlockLengthDoesNotDriveAllocation sends a stream of a few
// dozen bytes whose one block claims the 64 MB maximum: the decoder
// must fail on the missing bytes having allocated well under 1 MB.
func TestWireBlockLengthDoesNotDriveAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the measurement")
	}
	hdr := []byte(wireMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, wireVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // fromSnap
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // toSnap
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // created
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // deletes
	hdr = binary.LittleEndian.AppendUint32(hdr, 1) // blocks
	hdr = binary.LittleEndian.AppendUint32(hdr, maxWireBlock)
	hdr = append(hdr, "partial"...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeStream(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated 64 MB block decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte stream claiming a 64 MB block allocated %d bytes before failing", len(hdr), got)
	}
}

// withCRC replaces data's last four bytes with the stream CRC of the
// rest, so fuzzed mutations reach the decoder's structure checks
// instead of all stopping at the checksum.
func withCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))
}

// FuzzDecodeStream throws arbitrary bytes at the send-stream decoder,
// both as given and with the trailer CRC recomputed. The invariants: it
// never panics; an accepted stream re-encodes to exactly the bytes it
// was decoded from; and a stream Receive rejects leaves the replica's
// objects and Stats unchanged.
//
// Run with `go test -fuzz FuzzDecodeStream ./internal/zvol/`; the seed
// corpus below is exercised on every plain `go test`.
func FuzzDecodeStream(f *testing.F) {
	src, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		f.Fatal(err)
	}
	src.WriteObject("a", bytes.NewReader(mkData(50, 20*1024)))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(mkData(51, 12*1024)))
	src.DeleteObject("a")
	src.Snapshot("s2", day(1))
	base, err := src.Send("", "s1")
	if err != nil {
		f.Fatal(err)
	}
	incr, err := src.Send("s1", "s2")
	if err != nil {
		f.Fatal(err)
	}
	for _, st := range []*Stream{base, incr} {
		var buf bytes.Buffer
		if _, err := st.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		enc := buf.Bytes()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		bad := append([]byte(nil), enc...)
		bad[len(bad)/3] ^= 0x5A
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte("SQRL\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x04"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			st, err := DecodeStream(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var re bytes.Buffer
			if _, err := st.Encode(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(in, re.Bytes()) {
				t.Fatalf("re-encode differs from the decoded bytes:\n%x\n%x", re.Bytes(), in)
			}
			dst, err := New(cfg(4096, "gzip6", true))
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Receive(base); err != nil {
				t.Fatal(err)
			}
			objs, stats := dst.Objects(), dst.Stats()
			if err := dst.Receive(st); err == nil {
				continue
			}
			if got := dst.Objects(); !reflect.DeepEqual(got, objs) {
				t.Fatalf("rejected stream changed the objects: %v -> %v", objs, got)
			}
			if got := dst.Stats(); got != stats {
				t.Fatalf("rejected stream changed Stats:\n%+v\n%+v", stats, got)
			}
		}
	})
}
