package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/peer"
	"repro/internal/qcow"
	"repro/internal/zvol"
)

// readReplay times the read path of one boot layer by layer, from
// outside: ReadObject on the live ccVolume the boot read (the booting
// node's, or the peer's that served a cold boot), the codec alone and
// SHA-256 alone over the same blocks, and the boot trace through a
// fresh qcow overlay. Replays run in a quiescent pass after the load,
// so the allocation count is the read's alone.
type readReplay struct {
	sq     *core.Squirrel
	codec  compress.Codec
	stored map[string][]storedBlock
	raw    []byte // backing bytes of the qcow replay, reused
	// Per replay, in op order.
	allocs, blocks []float64
	overFloor      []float64
}

// storedBlock is one nonzero block in logical and stored (on-disk) form.
type storedBlock struct {
	logical, stored []byte
	compressed      bool
}

func newReadReplay(sq *core.Squirrel) (*readReplay, error) {
	codec, err := compress.Get(sq.SCVolume().Config().Codec)
	if err != nil {
		return nil, err
	}
	return &readReplay{sq: sq, codec: codec, stored: map[string][]storedBlock{}}, nil
}

// heapAllocs is the process's exact cumulative allocation count.
func heapAllocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

// storedForm rebuilds an object's blocks as the volume stores them: the
// codec is deterministic, so compressing a block's logical bytes gives
// its stored payload, which the recorded physical length confirms.
func (rr *readReplay) storedForm(v *zvol.Volume, id string) ([]storedBlock, error) {
	if sb, ok := rr.stored[id]; ok {
		return sb, nil
	}
	infos, err := v.BlockInfos(id)
	if err != nil {
		return nil, err
	}
	var out []storedBlock
	for i, bi := range infos {
		if bi.Zero {
			continue
		}
		data, _, _, err := v.ReadBlock(id, i)
		if err != nil {
			return nil, err
		}
		sb := storedBlock{logical: data, stored: data, compressed: bi.Compressed}
		if bi.Compressed {
			sb.stored = rr.codec.Compress(data)
		}
		if len(sb.stored) != int(bi.PhysLen) {
			return nil, fmt.Errorf("%s block %d: rebuilt stored form is %d bytes, volume stores %d", id, i, len(sb.stored), bi.PhysLen)
		}
		out = append(out, sb)
	}
	rr.stored[id] = out
	return out, nil
}

// sampled is a boot picked for a read replay: op's image, and the node
// whose ccVolume served its cache object.
type sampled struct {
	op          int
	image, node string
}

// replay times one sampled boot's read path.
func (rr *readReplay) replay(tr *tracer, b sampled) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("read replay of %s on %s: %w", b.image, b.node, err)
		}
	}()
	op, id := b.op, b.image
	v, err := rr.sq.CCVolume(b.node)
	if err != nil {
		return err
	}
	sb, err := rr.storedForm(v, id)
	if err != nil {
		return err
	}
	var rerr error
	a0 := heapAllocs()
	read := tr.time(op, "zvol.read_object", func() { _, rerr = v.ReadObject(id) })
	a1 := heapAllocs()
	if rerr != nil {
		return rerr
	}
	var derr error
	dec := tr.time(op, "compress.decompress", func() {
		for _, b := range sb {
			if b.compressed {
				if _, err := rr.codec.Decompress(b.stored, len(b.logical)); err != nil {
					derr = err
				}
			}
		}
	})
	if derr != nil {
		return derr
	}
	hash := tr.time(op, "block.hash", func() {
		for _, b := range sb {
			block.HashOf(b.stored)
			block.HashOf(b.logical)
		}
	})
	rr.allocs = append(rr.allocs, float64(a1-a0))
	rr.blocks = append(rr.blocks, float64(len(sb)))
	rr.overFloor = append(rr.overFloor, float64(read)/float64(dec+hash))

	im := images[id]
	if int64(len(rr.raw)) < im.RawSize() {
		rr.raw = make([]byte, im.RawSize())
	}
	ov, err := qcow.NewOverlay(&qcow.MemBackend{Data: rr.raw[:im.RawSize()]}, qcow.DefaultClusterSize, false)
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	var qerr error
	tr.time(op, "qcow.trace_read", func() {
		for _, e := range im.BootTrace() {
			if int64(len(buf)) < e.Len {
				buf = make([]byte, e.Len)
			}
			if _, err := ov.ReadAt(buf[:e.Len], e.Off); err != nil {
				qerr = err
			}
		}
	})
	return qerr
}

// report turns the read replays into per-layer metrics, and closes the
// boot ledger: the boot span minus the read and qcow replays of that op.
func (rr *readReplay) report(tr *tracer, res *result, bootSpan string) {
	res.spanLayers(tr, "zvol.read_object", "compress.decompress", "block.hash", "qcow.trace_read")
	res.layer("zvol.read_object_allocs", quantile(rr.allocs, 0.5), len(rr.allocs))
	res.layer("zvol.read_object_blocks", quantile(rr.blocks, 0.5), len(rr.blocks))
	res.layer("zvol.read_over_floor", quantile(rr.overFloor, 0.5), len(rr.overFloor))

	boots, reads, qc := tr.perOp(bootSpan), tr.perOp("zvol.read_object"), tr.perOp("qcow.trace_read")
	var gap []time.Duration
	for op, r := range reads {
		if b, ok := boots[op]; ok {
			gap = append(gap, b-r-qc[op])
		}
	}
	res.layer("core.boot_unattributed_us", us(quantile(gap, 0.5)), len(gap))
}

// shadow replays the write path on volumes the benchmark owns: a
// storage-side and a replica-side zvol.Volume with the deployment's
// volume config, and a peer.Index fed the replica's live objects for
// every node, taken through every register, deregister and GC the
// workload issued, in order. Register receives once per node; the
// shadow receives once per register and the ledger scales it.
type shadow struct {
	sc, cc *zvol.Volume
	ix     *peer.Index
	nodes  []string
	live   map[string]bool
	prev   string
	// Useful-over-attempt tallies of the measured phase.
	dedupHits, dedupLookups int64
	kept, shipped           int64
}

func newShadow(cfg zvol.Config, nodes []string) (*shadow, error) {
	sc, err := zvol.New(cfg)
	if err != nil {
		return nil, err
	}
	cc, err := zvol.New(cfg)
	if err != nil {
		return nil, err
	}
	return &shadow{sc: sc, cc: cc, ix: peer.NewIndex(), nodes: nodes, live: map[string]bool{}}, nil
}

// register mirrors core.Squirrel.Register's storage- and replica-side
// volume calls for im under the snapshot name the deployment chose.
func (s *shadow) register(tr *tracer, op int, im *corpus.Image, snap string, at time.Time) error {
	d0 := s.sc.DDTStats()
	var err error
	tr.time(op, "zvol.write_object", func() { _, err = s.sc.WriteObject(im.ID, im.CacheReader()) })
	if err != nil {
		return err
	}
	d1 := s.sc.DDTStats()
	if tr.on {
		// Every nonzero block written adds one reference; only misses add
		// an entry, and a write releases nothing.
		refs := d1.References - d0.References
		s.dedupHits += refs - (d1.Entries - d0.Entries)
		s.dedupLookups += refs
	}
	tr.time(op, "zvol.snapshot", func() { _, err = s.sc.Snapshot(snap, at) })
	if err != nil {
		return err
	}
	var st *zvol.Stream
	tr.time(op, "zvol.send", func() { st, err = s.sc.Send(s.prev, snap) })
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	tr.time(op, "zvol.encode", func() { _, err = st.Encode(&wire) })
	if err != nil {
		return err
	}
	var prep *zvol.PreparedStream
	tr.time(op, "zvol.prepare", func() { prep = s.sc.Prepare(st) })
	if tr.on {
		for _, b := range prep.Blocks {
			s.shipped++
			if b.Compressed {
				s.kept++
			}
		}
	}
	tr.time(op, "zvol.receive_prepared", func() { err = s.cc.ReceivePrepared(prep) })
	if err != nil {
		return err
	}
	s.prev = snap
	s.live[im.ID] = true
	s.announce(tr, op)
	return nil
}

// announce mirrors the per-node SetHoldings of a registration.
func (s *shadow) announce(tr *tracer, op int) {
	var held []string
	for _, id := range s.cc.Objects() {
		if s.live[id] {
			held = append(held, id)
		}
	}
	for _, n := range s.nodes {
		tr.time(op, "peer.set_holdings", func() { s.ix.SetHoldings(n, held) })
	}
}

func (s *shadow) deregister(id string) error {
	delete(s.live, id)
	s.ix.WithdrawObject(id)
	return s.sc.DeleteObject(id)
}

func (s *shadow) gc(tr *tracer, op int, now time.Time, window time.Duration) {
	tr.time(op, "zvol.gc", func() {
		s.sc.GarbageCollect(now, window)
		s.cc.GarbageCollect(now, window)
	})
}

// report turns the write replays into per-layer metrics and closes the
// register ledger. Register applies the prepared stream on every node
// over workers goroutines (core.Config.Workers 0 is GOMAXPROCS), so the
// ledger charges the single receive replay nodes/workers times.
func (s *shadow) report(tr *tracer, res *result, workers int) {
	res.spanLayers(tr, "zvol.write_object", "zvol.snapshot", "zvol.send", "zvol.encode",
		"zvol.prepare", "zvol.receive_prepared", "zvol.gc", "peer.set_holdings")
	res.layer("zvol.dedup_hit_ratio", ratio(s.dedupHits, s.dedupLookups), int(s.dedupLookups))
	res.layer("zvol.compress_kept_ratio", ratio(s.kept, s.shipped), int(s.shipped))

	regs := tr.perOp("core.register")
	serial := []map[int]time.Duration{
		tr.perOp("zvol.write_object"), tr.perOp("zvol.snapshot"), tr.perOp("zvol.send"),
		tr.perOp("zvol.encode"), tr.perOp("zvol.prepare"), tr.perOp("peer.set_holdings"),
	}
	recv := tr.perOp("zvol.receive_prepared")
	legs := float64(len(s.nodes)) / float64(min(workers, len(s.nodes)))
	var gap []time.Duration
	for op, r := range regs {
		g := r - time.Duration(legs*float64(recv[op]))
		for _, m := range serial {
			g -= m[op]
		}
		gap = append(gap, g)
	}
	res.layer("core.register_unattributed_us", us(quantile(gap, 0.5)), len(gap))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
