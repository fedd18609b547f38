package compress

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// allCodecs returns every registered codec.
func allCodecs(t testing.TB) []Codec {
	t.Helper()
	var out []Codec
	for _, n := range Names() {
		out = append(out, MustGet(n))
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 codecs, got %v", Names())
	}
	return out
}

// sampleInputs produces a spread of payloads: empty, tiny, zeros,
// text-like (highly compressible), random (incompressible), and repeated
// patterns (LZ-friendly).
func sampleInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 64*1024)
	rng.Read(random)
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 1500))
	pattern := bytes.Repeat([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}, 11000)
	mixed := make([]byte, 0, 96*1024)
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			mixed = append(mixed, text[:4096]...)
		} else {
			mixed = append(mixed, random[i*4096:(i+1)*4096]...)
		}
	}
	return map[string][]byte{
		"empty":   {},
		"one":     {0x7F},
		"two":     {0, 0},
		"zeros":   make([]byte, 64*1024),
		"text":    text[:64*1024],
		"random":  random,
		"pattern": pattern[:64*1024],
		"mixed":   mixed,
		"short":   []byte("abcabcabcabcabc"),
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, in := range sampleInputs() {
			comp := c.Compress(in)
			out, err := c.Decompress(comp, len(in))
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", c.Name(), name, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s/%s: round trip mismatch (in %d, out %d)",
					c.Name(), name, len(in), len(out))
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	// Property: every codec round-trips arbitrary byte slices.
	for _, c := range allCodecs(t) {
		c := c
		f := func(in []byte) bool {
			comp := c.Compress(in)
			out, err := c.Decompress(comp, len(in))
			return err == nil && bytes.Equal(out, in)
		}
		cfg := &quick.Config{MaxCount: 200}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestRoundTripStructuredQuick(t *testing.T) {
	// Property: round trip on LZ-hostile and LZ-friendly structured data:
	// runs of repeated chunks with random edits.
	rng := rand.New(rand.NewSource(99))
	for _, c := range allCodecs(t) {
		for trial := 0; trial < 30; trial++ {
			chunk := make([]byte, 1+rng.Intn(300))
			rng.Read(chunk)
			reps := 1 + rng.Intn(50)
			in := bytes.Repeat(chunk, reps)
			for e := 0; e < rng.Intn(10); e++ {
				in[rng.Intn(len(in))] ^= 0xFF
			}
			comp := c.Compress(in)
			out, err := c.Decompress(comp, len(in))
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%s trial %d: round trip failed (err %v)", c.Name(), trial, err)
			}
		}
	}
}

func TestCompressibleDataShrinks(t *testing.T) {
	in := sampleInputs()["text"]
	for _, name := range []string{"gzip6", "gzip9", "lzjb", "lz4"} {
		c := MustGet(name)
		comp := c.Compress(in)
		if len(comp) >= len(in) {
			t.Errorf("%s: text did not shrink: %d >= %d", name, len(comp), len(in))
		}
	}
}

func TestZerosShrinkDramatically(t *testing.T) {
	in := make([]byte, 128*1024)
	for _, name := range []string{"gzip6", "gzip9", "lzjb", "lz4"} {
		c := MustGet(name)
		comp := c.Compress(in)
		if len(comp) > len(in)/20 {
			t.Errorf("%s: zeros compressed only to %d bytes", name, len(comp))
		}
	}
}

func TestCodecOrderingMatchesPaper(t *testing.T) {
	// Fig 3: gzip9 >= gzip6 > lz4, lzjb on compressible content.
	in := sampleInputs()["text"]
	size := func(n string) int { return len(MustGet(n).Compress(in)) }
	g6, g9, l4, lj := size("gzip6"), size("gzip9"), size("lz4"), size("lzjb")
	if g9 > g6+g6/50 {
		t.Errorf("gzip9 (%d) should compress at least as well as gzip6 (%d)", g9, g6)
	}
	if g6 >= l4 || g6 >= lj {
		t.Errorf("gzip6 (%d) should beat lz4 (%d) and lzjb (%d)", g6, l4, lj)
	}
}

func TestDecompressCorruptInput(t *testing.T) {
	// Corrupt streams must error or produce bounded output — never panic
	// or overrun maxLen.
	rng := rand.New(rand.NewSource(5))
	in := make([]byte, 4096)
	rng.Read(in)
	for _, c := range allCodecs(t) {
		comp := c.Compress(in)
		for trial := 0; trial < 200; trial++ {
			mut := make([]byte, len(comp))
			copy(mut, comp)
			for k := 0; k <= rng.Intn(4); k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			out, err := c.Decompress(mut, len(in))
			if err == nil && len(out) > len(in) {
				t.Fatalf("%s: corrupt stream produced %d > maxLen %d", c.Name(), len(out), len(in))
			}
		}
	}
}

func TestDecompressTruncatedInput(t *testing.T) {
	// A truncated stream never overruns maxLen, and for gzip, whose
	// trailer checksums the whole stream, every truncation is an error:
	// flate's io.ErrUnexpectedEOF must not pass for a clean end.
	in := bytes.Repeat([]byte("squirrel hoards "), 512)
	for _, c := range allCodecs(t) {
		comp := c.Compress(in)
		for cut := 0; cut < len(comp); cut++ {
			out, err := c.Decompress(comp[:cut], len(in))
			if err == nil && len(out) > len(in) {
				t.Fatalf("%s: truncated stream overran maxLen", c.Name())
			}
			if isGzip(c) && err == nil {
				t.Fatalf("%s: stream cut to %d of %d bytes decoded without error",
					c.Name(), cut, len(comp))
			}
		}
	}
}

func isGzip(c Codec) bool { return strings.HasPrefix(c.Name(), "gzip") }

func TestAppendDecompress(t *testing.T) {
	prefix := []byte("caller's prefix")
	for _, c := range allCodecs(t) {
		for name, in := range sampleInputs() {
			comp := c.Compress(in)
			t.Run(c.Name()+"/"+name+"/prefix kept", func(t *testing.T) {
				// Both with room to spare and with none, so the codec
				// must both write in place and grow.
				for _, extra := range []int{0, len(in)} {
					dst := append(make([]byte, 0, len(prefix)+extra), prefix...)
					out, err := c.AppendDecompress(dst, comp, len(in))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], in) {
						t.Fatalf("cap %d: got %d bytes, want prefix + %d", cap(dst), len(out), len(in))
					}
				}
			})
			if len(in) == 0 {
				continue
			}
			t.Run(c.Name()+"/"+name+"/over maxLen", func(t *testing.T) {
				dst := append([]byte(nil), prefix...)
				out, err := c.AppendDecompress(dst, comp, len(in)-1)
				if err == nil {
					t.Fatalf("%d-byte output accepted under maxLen %d", len(in), len(in)-1)
				}
				if !bytes.Equal(out, prefix) {
					t.Fatalf("failed decode returned %d bytes, want the %d-byte prefix", len(out), len(prefix))
				}
			})
		}
	}
}

func TestGzipReaderReusableAfterFailure(t *testing.T) {
	// A pooled reader that just failed on a corrupt stream must decode
	// the next valid stream byte-exactly.
	in := sampleInputs()["mixed"]
	for _, name := range []string{"gzip6", "gzip9"} {
		c := MustGet(name)
		comp := c.Compress(in)
		bad := append([]byte(nil), comp...)
		for i := len(bad) / 3; i < len(bad)/3+64; i++ {
			bad[i] ^= 0x5A
		}
		for round := 0; round < 4; round++ {
			if _, err := c.Decompress(bad, len(in)); err == nil {
				t.Fatalf("%s: corrupt stream decoded", name)
			}
			if _, err := c.Decompress(comp[:len(comp)/2], len(in)); err == nil {
				t.Fatalf("%s: truncated stream decoded", name)
			}
			out, err := c.Decompress(comp, len(in))
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("%s round %d: decode after failure: err %v, equal %v",
					name, round, err, bytes.Equal(out, in))
			}
		}
	}
}

func FuzzAppendDecompress(f *testing.F) {
	codecs := allCodecs(f)
	for i, c := range codecs {
		for _, in := range sampleInputs() {
			in = in[:min(len(in), 4<<10)] // small seeds keep mutation fast
			f.Add(uint8(i), c.Compress(in), uint32(len(in)), []byte("prefix"))
		}
	}
	f.Fuzz(func(t *testing.T, ci uint8, src []byte, limit uint32, prefix []byte) {
		c := codecs[int(ci)%len(codecs)]
		maxLen := int(limit % (1 << 18)) // bound the up-front output buffer
		dst := append([]byte(nil), prefix...)
		out, err := c.AppendDecompress(dst, src, maxLen)
		if len(out) < len(prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("%s: prefix not preserved", c.Name())
		}
		got := out[len(prefix):]
		if len(got) > maxLen {
			t.Fatalf("%s: appended %d bytes over maxLen %d", c.Name(), len(got), maxLen)
		}
		if err != nil && len(got) != 0 {
			t.Fatalf("%s: failed decode appended %d bytes", c.Name(), len(got))
		}
		if !isGzip(c) {
			return
		}
		// The reference: a fresh stdlib reader, read to its end.
		var want []byte
		zr, werr := gzip.NewReader(bytes.NewReader(src))
		if werr == nil {
			want, werr = io.ReadAll(io.LimitReader(zr, int64(maxLen)+1))
		}
		refOK := werr == nil && len(want) <= maxLen
		if refOK != (err == nil) {
			t.Fatalf("%s: decode err %v, stdlib err %v with %d of max %d bytes",
				c.Name(), err, werr, len(want), maxLen)
		}
		if refOK && !bytes.Equal(got, want) {
			t.Fatalf("%s: output differs from stdlib gzip", c.Name())
		}
	})
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("zstd"); err == nil {
		t.Fatal("expected error for unknown codec")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register(Null{})
}

func TestNullIsIdentity(t *testing.T) {
	in := []byte("unchanged")
	c := MustGet("null")
	comp := c.Compress(in)
	if !bytes.Equal(comp, in) {
		t.Fatal("null codec must be identity")
	}
	comp[0] = 'X' // must not alias the input
	if in[0] == 'X' {
		t.Fatal("null codec must copy, not alias")
	}
}

func TestConcurrentUse(t *testing.T) {
	in := sampleInputs()["mixed"]
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func() {
					for i := 0; i < 20; i++ {
						out, err := c.Decompress(c.Compress(in), len(in))
						if err != nil || !bytes.Equal(out, in) {
							done <- err
							return
						}
					}
					done <- nil
				}()
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func benchCompress(b *testing.B, name string) {
	c := MustGet(name)
	in := sampleInputs()["mixed"][:64*1024]
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(in)
	}
}

func benchDecompress(b *testing.B, name string) {
	c := MustGet(name)
	in := sampleInputs()["mixed"][:64*1024]
	comp := c.Compress(in)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(comp, len(in)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressGzip6(b *testing.B)   { benchCompress(b, "gzip6") }
func BenchmarkCompressGzip9(b *testing.B)   { benchCompress(b, "gzip9") }
func BenchmarkCompressLZJB(b *testing.B)    { benchCompress(b, "lzjb") }
func BenchmarkCompressLZ4(b *testing.B)     { benchCompress(b, "lz4") }
func BenchmarkDecompressGzip6(b *testing.B) { benchDecompress(b, "gzip6") }
func BenchmarkDecompressLZJB(b *testing.B)  { benchDecompress(b, "lzjb") }
func BenchmarkDecompressLZ4(b *testing.B)   { benchDecompress(b, "lz4") }
