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
