package zvol

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// allocBytes returns the bytes f allocates per call, averaged over runs
// calls that follow one warm-up call.
func allocBytes(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// gzipVolume returns a default-configured (64 KB gzip-6) volume holding
// objects objects of size bytes each, every one spanning several
// compressed blocks.
func gzipVolume(t *testing.T, objects, size int) *Volume {
	t.Helper()
	v, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("o%d", i)
		if _, err := v.WriteObject(name, bytes.NewReader(mkData(int64(70+i), size))); err != nil {
			t.Fatal(err)
		}
		infos, err := v.BlockInfos(name)
		if err != nil {
			t.Fatal(err)
		}
		compressed := 0
		for _, bi := range infos {
			if bi.Compressed {
				compressed++
			}
		}
		if compressed < 2 {
			t.Fatalf("%s: %d compressed blocks, want a multi-block gzip object", name, compressed)
		}
	}
	return v
}

func TestReadObjectAllocatesOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const size = 1 << 20
	v := gzipVolume(t, 1, size)
	per := allocBytes(20, func() {
		if _, err := v.ReadObject("o0"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadObject of %d B allocates %.0f B", size, per)
	if limit := 1.1*size + 64<<10; per > limit {
		t.Fatalf("warm ReadObject of a %d B object allocates %.0f B, want <= %.0f", size, per, limit)
	}
}

func TestScrubAllocatesPerCallNotPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The walk reuses one decode buffer for every block, so a scrub
	// allocates about one block whatever the volume holds. What is left
	// per block is compress/flate's own Huffman link tables, a few
	// hundred bytes per dynamic block; a per-block decode buffer would
	// be 64 KB.
	measure := func(v *Volume) (blocks int, perCall float64) {
		rep := v.Scrub()
		if !rep.Clean() {
			t.Fatalf("clean volume scrubbed dirty: %+v", rep)
		}
		return rep.Blocks, allocBytes(10, func() { v.Scrub() })
	}
	nSmall, perSmall := measure(gzipVolume(t, 2, 256<<10))
	nLarge, perLarge := measure(gzipVolume(t, 8, 256<<10))
	t.Logf("scrub allocates %.0f B over %d blocks, %.0f B over %d", perSmall, nSmall, perLarge, nLarge)
	block := float64(DefaultConfig().BlockSize)
	if limit := block + 64<<10; perLarge > limit {
		t.Fatalf("scrub allocates %.0f B per call, want <= %.0f", perLarge, limit)
	}
	if marginal := (perLarge - perSmall) / float64(nLarge-nSmall); marginal > 1<<10 {
		t.Fatalf("scrub allocates %.0f B per extra block, want <= 1024", marginal)
	}
}
