// Package checkpoint persists and restores training state so an
// interrupted run — a crashed process, a preempted container, a routine
// daily retrain cut short — continues from its last snapshot instead of
// losing hours of work. EGES (the paper's predecessor system) retrains
// billions of embeddings daily; at that cadence restartability is an
// operational requirement, not a convenience.
//
// A Snapshot carries everything the trainers in internal/sgns and
// internal/dist need to continue bit-compatibly: the model matrices, the
// replicated hot store (distributed runs), epoch/block progress, arbitrary
// named-by-position counters, the per-shard RNG states, and a hash of the
// options the run was started with. The model file that sisg-train -out
// writes is the same file kind: a Snapshot holding only the model, whose
// options hash names the corpus config and variant it was trained for
// (internal/sisg writes and reads it). Writes are atomic (temp file +
// fsync + rename into place) so a crash mid-write can never destroy the
// previous good file, and the whole payload is covered by a CRC-32 that
// Load verifies, so a torn or bit-rotted file is rejected rather than
// silently used.
//
// Binary format (little-endian):
//
//	magic    [8]byte "SISGCKP1"
//	optHash  uint64
//	epoch    uint32
//	block    uint32
//	counters uint32 n, then n × uint64
//	rngs     uint32 n, then n × 4 × uint64
//	model    uint32 vocab, uint32 dim, in vocab×dim float32, out vocab×dim float32
//	hot      uint32 n, uint32 dim, hotIn n×dim float32, hotOut n×dim float32
//	crc      uint32 CRC-32 (IEEE) of every preceding byte
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"sisg/internal/emb"
)

var magic = [8]byte{'S', 'I', 'S', 'G', 'C', 'K', 'P', '1'}

// FileName is the snapshot file name inside a checkpoint directory.
const FileName = "checkpoint.ckpt"

var (
	// ErrCorrupt reports a snapshot whose CRC, magic or structure is
	// invalid: the file must not be resumed from.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrOptionsMismatch reports a snapshot written under different
	// training options than the resuming run; continuing would silently
	// train a different model. Returned by Snapshot.CheckOptions.
	ErrOptionsMismatch = errors.New("checkpoint: options hash mismatch")
)

// Snapshot is one consistent cut of training state.
type Snapshot struct {
	// OptionsHash fingerprints the run configuration (see HashOptions). A
	// resume refuses a snapshot whose hash differs from its own options.
	OptionsHash uint64
	// Epoch is the epoch the run was in; Block is the index of the NEXT
	// sequence block to train within that epoch (blocks before it are
	// complete).
	Epoch int
	Block int
	// Counters are trainer-defined cumulative values (pairs, tokens,
	// per-worker stats); the trainer that wrote them knows the layout.
	Counters []uint64
	// RNGs are the per-shard generator states, in shard order.
	RNGs [][4]uint64
	// Model is the embedding state at the cut.
	Model *emb.Model
	// HotIn/HotOut are the distributed engine's replicated hot-token
	// store (nil/empty for local training).
	HotIn, HotOut [][]float32
}

// CheckOptions returns ErrOptionsMismatch (with both hashes in the
// message) when the snapshot was written under a different configuration.
func (s *Snapshot) CheckOptions(hash uint64) error {
	if s.OptionsHash != hash {
		return fmt.Errorf("%w: snapshot %016x, run %016x", ErrOptionsMismatch, s.OptionsHash, hash)
	}
	return nil
}

// Path returns the snapshot location inside dir.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// Exists reports whether path is a snapshot file (it may still fail CRC
// validation on Load).
func Exists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// HashOptions fingerprints an arbitrary set of run parameters via FNV-1a
// over their printed representation. Callers pass every value that must
// match between the checkpointing run and the resuming run (options
// struct, vocabulary size, worker count, ...).
func HashOptions(vs ...interface{}) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%v;", v)
	}
	return h.Sum64()
}

// crcWriter tees writes into a CRC-32 accumulator.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n]) //lint:allow errsink hash.Hash.Write is documented to never return an error
	return n, err
}

// Save writes the snapshot atomically to path, creating its directory if
// needed: the bytes go to a temp file in the same directory, are synced,
// and the temp file is renamed over any previous file at path. Readers
// therefore see either the old complete snapshot or the new complete
// snapshot, never a partial write.
func Save(path string, s *Snapshot) error {
	if s == nil || s.Model == nil {
		return errors.New("checkpoint: nil snapshot or model")
	}
	if len(s.HotIn) != len(s.HotOut) {
		return fmt.Errorf("checkpoint: hot store asymmetric: %d in, %d out", len(s.HotIn), len(s.HotOut))
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename

	err = writeSnapshot(tmp, s)
	if err2 := tmp.Sync(); err == nil {
		err = err2
	}
	if err2 := tmp.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory itself: the rename above is only durable
// once the directory entry hits disk, so without this a host crash shortly
// after Save could resurface the previous snapshot (or none) even though
// the temp file's bytes were synced. Filesystems that do not support
// syncing a directory handle report EINVAL/ENOTSUP; that is the platform
// saying the rename is already as durable as it gets, not a Save failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if err2 := d.Close(); err == nil {
		err = err2
	}
	if err != nil && (errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL)) {
		return nil
	}
	return err
}

func writeSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}

	if _, err := cw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeU64(cw, s.OptionsHash); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(s.Epoch)); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(s.Block)); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(len(s.Counters))); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if err := writeU64(cw, c); err != nil {
			return err
		}
	}
	if err := writeU32(cw, uint32(len(s.RNGs))); err != nil {
		return err
	}
	for _, st := range s.RNGs {
		for _, v := range st {
			if err := writeU64(cw, v); err != nil {
				return err
			}
		}
	}
	if err := writeU32(cw, uint32(s.Model.Vocab())); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(s.Model.Dim())); err != nil {
		return err
	}
	if err := writeFloats(cw, s.Model.In.Data()); err != nil {
		return err
	}
	if err := writeFloats(cw, s.Model.Out.Data()); err != nil {
		return err
	}
	hotDim := 0
	if len(s.HotIn) > 0 {
		hotDim = len(s.HotIn[0])
	}
	if err := writeU32(cw, uint32(len(s.HotIn))); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(hotDim)); err != nil {
		return err
	}
	for _, rows := range [][][]float32{s.HotIn, s.HotOut} {
		for _, row := range rows {
			if len(row) != hotDim {
				return fmt.Errorf("checkpoint: ragged hot store row: %d != %d", len(row), hotDim)
			}
			if err := writeFloats(cw, row); err != nil {
				return err
			}
		}
	}
	// The trailer CRC covers everything written so far; it goes through
	// bw directly so it is not folded into itself.
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads and validates the snapshot at path. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist); any structural or CRC
// failure returns an error wrapping ErrCorrupt.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:allow errsink read-only file; truncation is caught by the CRC check
	return readSnapshot(f)
}

func readSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)

	var got [8]byte
	if _, err := io.ReadFull(tr, got[:]); err != nil {
		return nil, corrupt("reading magic: %v", err)
	}
	if got != magic {
		return nil, corrupt("bad magic %q", got[:])
	}
	s := &Snapshot{}
	optHash, err := readU64(tr)
	if err != nil {
		return nil, corrupt("options hash: %v", err)
	}
	s.OptionsHash = optHash
	epoch, err := readU32(tr)
	if err != nil {
		return nil, corrupt("epoch: %v", err)
	}
	block, err := readU32(tr)
	if err != nil {
		return nil, corrupt("block: %v", err)
	}
	s.Epoch, s.Block = int(epoch), int(block)

	nCounters, err := readU32(tr)
	if err != nil {
		return nil, corrupt("counter count: %v", err)
	}
	if nCounters > 1<<20 {
		return nil, corrupt("absurd counter count %d", nCounters)
	}
	s.Counters = make([]uint64, nCounters)
	for i := range s.Counters {
		if s.Counters[i], err = readU64(tr); err != nil {
			return nil, corrupt("counter %d: %v", i, err)
		}
	}
	nRNGs, err := readU32(tr)
	if err != nil {
		return nil, corrupt("rng count: %v", err)
	}
	if nRNGs > 1<<20 {
		return nil, corrupt("absurd rng count %d", nRNGs)
	}
	s.RNGs = make([][4]uint64, nRNGs)
	for i := range s.RNGs {
		for j := 0; j < 4; j++ {
			if s.RNGs[i][j], err = readU64(tr); err != nil {
				return nil, corrupt("rng %d: %v", i, err)
			}
		}
	}
	vocab, err := readU32(tr)
	if err != nil {
		return nil, corrupt("vocab: %v", err)
	}
	dim, err := readU32(tr)
	if err != nil {
		return nil, corrupt("dim: %v", err)
	}
	if dim == 0 || dim > 1<<16 || vocab > 1<<28 {
		return nil, corrupt("implausible shape %d×%d", vocab, dim)
	}
	s.Model = &emb.Model{In: emb.NewMatrix(int(vocab), int(dim)), Out: emb.NewMatrix(int(vocab), int(dim))}
	if err := readFloats(tr, s.Model.In.Data()); err != nil {
		return nil, corrupt("in matrix: %v", err)
	}
	if err := readFloats(tr, s.Model.Out.Data()); err != nil {
		return nil, corrupt("out matrix: %v", err)
	}
	nHot, err := readU32(tr)
	if err != nil {
		return nil, corrupt("hot count: %v", err)
	}
	hotDim, err := readU32(tr)
	if err != nil {
		return nil, corrupt("hot dim: %v", err)
	}
	if nHot > 1<<24 || hotDim > 1<<16 {
		return nil, corrupt("implausible hot store %d×%d", nHot, hotDim)
	}
	s.HotIn = make([][]float32, nHot)
	s.HotOut = make([][]float32, nHot)
	for _, rows := range [][][]float32{s.HotIn, s.HotOut} {
		for i := range rows {
			rows[i] = make([]float32, hotDim)
			if err := readFloats(tr, rows[i]); err != nil {
				return nil, corrupt("hot row %d: %v", i, err)
			}
		}
	}
	// All payload bytes are in the accumulator; the trailer itself is
	// read outside the tee.
	want := crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, corrupt("trailer: %v", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, corrupt("CRC mismatch: stored %08x, computed %08x", got, want)
	}
	return s, nil
}

func corrupt(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeFloats(w io.Writer, fs []float32) error {
	buf := make([]byte, 4096)
	for len(fs) > 0 {
		n := len(buf) / 4
		if n > len(fs) {
			n = len(fs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(fs[i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		fs = fs[n:]
	}
	return nil
}

func readFloats(r io.Reader, fs []float32) error {
	buf := make([]byte, 4096)
	for len(fs) > 0 {
		n := len(buf) / 4
		if n > len(fs) {
			n = len(fs)
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			fs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		fs = fs[n:]
	}
	return nil
}
