// Package compress provides the block codecs the paper evaluates for
// cVolumes (Fig 3): gzip at levels 6 and 9 (via the standard library), and
// from-scratch implementations of the two fast codecs shipped with ZFS,
// LZJB and LZ4. A null codec is included for ablations.
//
// All codecs are deterministic, safe for concurrent use, and round-trip
// exact; properties the test suite checks exhaustively.
package compress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// Codec compresses and decompresses single blocks. Compress returns a
// fresh slice; decoding must reproduce the original block exactly.
// maxLen is an upper bound on the decompressed size (callers know the
// block size), letting codecs size the output once and detect corruption.
type Codec interface {
	// Name is the registry key ("gzip6", "lz4", ...), matching the labels
	// the paper uses in Fig 3.
	Name() string
	Compress(src []byte) []byte
	// AppendDecompress decodes src and appends the result to dst, growing
	// dst at most once. Output longer than maxLen is an error. On error it
	// returns dst at its original length; dst's existing bytes are never
	// modified either way.
	AppendDecompress(dst, src []byte, maxLen int) ([]byte, error)
	// Decompress is AppendDecompress(nil, src, maxLen).
	Decompress(src []byte, maxLen int) ([]byte, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Codec{}
)

// Register adds a codec to the global registry. It panics on duplicate
// names, which would indicate a programming error.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic("compress: duplicate codec " + c.Name())
	}
	registry[c.Name()] = c
}

// Get returns the codec registered under name.
func Get(name string) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

// MustGet is Get for statically known names; it panics on failure.
func MustGet(name string) Codec {
	c, err := Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists the registered codecs in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(Null{})
	Register(NewGzip("gzip6", 6))
	Register(NewGzip("gzip9", 9))
	Register(LZJB{})
	Register(LZ4{})
}

// Null is the identity codec, used for "compression off" ablations and as
// the qcow2-on-XFS baseline configuration.
type Null struct{}

// Name implements Codec.
func (Null) Name() string { return "null" }

// Compress returns a copy of src.
func (Null) Compress(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// AppendDecompress appends a copy of src to dst.
func (Null) AppendDecompress(dst, src []byte, maxLen int) ([]byte, error) {
	if len(src) > maxLen {
		return dst, fmt.Errorf("compress: null payload %d exceeds max %d", len(src), maxLen)
	}
	return append(dst, src...), nil
}

// Decompress returns a copy of src.
func (n Null) Decompress(src []byte, maxLen int) ([]byte, error) {
	return n.AppendDecompress(nil, src, maxLen)
}

// Gzip wraps compress/gzip at a fixed level. ZFS's gzip-6 is the paper's
// codec of choice after Fig 3 shows gzip-9 gains almost nothing for extra
// CPU. Writers and readers are pooled: allocating either costs far more
// than resetting its window.
type Gzip struct {
	name    string
	level   int
	writers sync.Pool
	readers sync.Pool // *gzipReader
}

// gzipReader is a pooled decoder together with the source reader it
// decodes from and its end-of-stream probe, so a decode allocates none
// of them.
type gzipReader struct {
	src   bytes.Reader
	zr    gzip.Reader
	probe [1]byte
}

// NewGzip returns a gzip codec at the given level registered under name.
func NewGzip(name string, level int) *Gzip {
	g := &Gzip{name: name, level: level}
	g.writers.New = func() any {
		w, err := gzip.NewWriterLevel(io.Discard, level)
		if err != nil {
			panic(err) // level is static and valid
		}
		return w
	}
	g.readers.New = func() any { return new(gzipReader) }
	return g
}

// Name implements Codec.
func (g *Gzip) Name() string { return g.name }

// Compress implements Codec.
func (g *Gzip) Compress(src []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(src)/2 + 64)
	w := g.writers.Get().(*gzip.Writer)
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	g.writers.Put(w)
	return buf.Bytes()
}

// AppendDecompress implements Codec. It inflates straight into
// dst[len(dst):len(dst)+maxLen] and then requires a probe read to return
// io.EOF: that read is what makes gzip verify the trailer's CRC-32 and
// size, and it proves the stream holds no byte past maxLen. Every other
// error, including flate's io.ErrUnexpectedEOF on a truncated stream,
// fails the decode.
func (g *Gzip) AppendDecompress(dst, src []byte, maxLen int) ([]byte, error) {
	r := g.readers.Get().(*gzipReader)
	defer func() {
		r.src.Reset(nil) // drop the pooled reader's reference to src
		g.readers.Put(r)
	}()
	r.src.Reset(src)
	if err := r.zr.Reset(&r.src); err != nil {
		return dst, fmt.Errorf("compress: gzip header: %w", err)
	}
	base := len(dst)
	dst = slices.Grow(dst, maxLen)
	out := dst[base : base+maxLen]
	n := 0
	for n < len(out) {
		m, err := r.zr.Read(out[n:])
		n += m
		if err == io.EOF {
			return dst[:base+n], nil
		}
		if err != nil {
			return dst[:base], fmt.Errorf("compress: gzip body: %w", err)
		}
	}
	// out is full, so the stream must end here.
	for {
		m, err := r.zr.Read(r.probe[:])
		switch {
		case m > 0:
			return dst[:base], fmt.Errorf("compress: gzip output exceeds max %d", maxLen)
		case err == io.EOF:
			return dst[:base+n], nil
		case err != nil:
			return dst[:base], fmt.Errorf("compress: gzip body: %w", err)
		}
	}
}

// Decompress implements Codec.
func (g *Gzip) Decompress(src []byte, maxLen int) ([]byte, error) {
	return g.AppendDecompress(nil, src, maxLen)
}
