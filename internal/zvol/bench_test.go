package zvol

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
)

// benchPayload is a mixed compressible/dedupable payload.
func benchPayload(n int) []byte {
	data := mkData(100, n)
	return data
}

func benchVolume(b *testing.B, cfgName string, cfg Config) {
	b.Helper()
	payload := benchPayload(1 << 20)
	b.Run(cfgName+"/write", func(b *testing.B) {
		v, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := v.WriteObject(fmt.Sprintf("o%d", i), bytes.NewReader(payload)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(cfgName+"/read", func(b *testing.B) {
		v, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.WriteObject("o", bytes.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.ReadObject("o"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkVolume(b *testing.B) {
	benchVolume(b, "dedup+gzip6/64K", Config{BlockSize: block.Size64K, Codec: "gzip6", Dedup: true, MinCompressGain: 0.125})
	benchVolume(b, "dedup+lz4/64K", Config{BlockSize: block.Size64K, Codec: "lz4", Dedup: true, MinCompressGain: 0.125})
	benchVolume(b, "dedup-only/64K", Config{BlockSize: block.Size64K, Codec: "null", Dedup: true})
	benchVolume(b, "raw/64K", Config{BlockSize: block.Size64K, Codec: "null", Dedup: false})
	benchVolume(b, "dedup+gzip6/4K", Config{BlockSize: block.Size4K, Codec: "gzip6", Dedup: true, MinCompressGain: 0.125})
}

func BenchmarkSnapshotSendReceive(b *testing.B) {
	src, _ := New(DefaultConfig())
	payload := benchPayload(1 << 20)
	src.WriteObject("base", bytes.NewReader(payload))
	src.Snapshot("s0", time.Unix(0, 0))
	// A similar second object: realistic incremental workload.
	similar := append([]byte(nil), payload...)
	copy(similar[:64<<10], benchPayload(64<<10))
	src.WriteObject("next", bytes.NewReader(similar))
	src.Snapshot("s1", time.Unix(1, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := src.Send("s0", "s1")
		if err != nil {
			b.Fatal(err)
		}
		dst, _ := New(DefaultConfig())
		full, err := src.Send("", "s0")
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Receive(full); err != nil {
			b.Fatal(err)
		}
		if err := dst.Receive(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotGC is the register path's per-snapshot cost at a
// steady catalog: 256 live objects of four 64 KB blocks each, drawn
// from a shared pool so the DDT dedups across them, and a 24-snapshot
// retention window. Each iteration takes one snapshot and runs one GC
// cycle that destroys the oldest.
func BenchmarkSnapshotGC(b *testing.B) {
	const objects, blocksPer, window = 256, 4, 24
	v, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	bs := int(DefaultConfig().BlockSize)
	pool := make([][]byte, 64)
	for i := range pool {
		pool[i] = mkData(int64(1000+i), bs)
	}
	for i := 0; i < objects; i++ {
		var data []byte
		for j := 0; j < blocksPer; j++ {
			data = append(data, pool[(i*7+j*13)%len(pool)]...)
		}
		data[0] = byte(i) // one private block per object
		if _, err := v.WriteObject(fmt.Sprintf("o%03d", i), bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	at := time.Unix(0, 0)
	cycle := func(i int) {
		at = at.Add(time.Hour)
		if _, err := v.Snapshot(fmt.Sprintf("s%06d", i), at); err != nil {
			b.Fatal(err)
		}
		v.GarbageCollect(at, window*time.Hour)
	}
	for i := 0; i < window; i++ {
		cycle(-window + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}
