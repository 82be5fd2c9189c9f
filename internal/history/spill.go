package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
)

// floatChunkBytes sizes the stack buffer used to stream float64
// snapshots to and from the spill file without per-call allocation.
// It matches codec.go's floatChunk (512 floats = 4 KiB).
const floatChunkBytes = floatChunk * 8

// storeOptions collects NewStore's optional configuration.
type storeOptions struct {
	spill    bool
	spillDir string
	window   int
}

// StoreOption configures optional NewStore behaviour, currently the
// bounded-memory snapshot tier (WithSpill).
type StoreOption func(*storeOptions)

// WithSpill bounds resident snapshot memory: model snapshots older
// than the newest window rounds are moved to an append-only scratch
// file under dir (the OS temp directory when dir is empty) and read
// back on demand. Resident snapshot memory is then O(window·Dim)
// regardless of rounds trained; recovered models are bit-identical to
// an all-RAM store. window must be ≥ 1 so the round being recorded is
// always served from RAM.
func WithSpill(dir string, window int) StoreOption {
	return func(o *storeOptions) {
		o.spill = true
		o.spillDir = dir
		o.window = window
	}
}

// spillCacheRounds is how many recently-read spilled rounds ModelInto
// keeps decoded in RAM. The recovery loop's L-BFGS bootstrap re-reads
// a short contiguous stretch of rounds, so a small cache absorbs
// almost all repeat reads.
const spillCacheRounds = 4

// spillTier implements the on-disk snapshot store behind WithSpill.
//
// On-disk layout (DESIGN.md §11): the file is a flat array of
// snapshots, round r's dim float64 values little-endian at byte
// offset r·8·dim. Offsets are implicit in round order, so no index
// structure is persisted; the file is created unlinked and vanishes
// with the process.
//
// Write side (spillRound, wbuf, spilled) is guarded by Store.mu; the
// read side uses only ReadAt plus the cmu-guarded hot-round cache, so
// lock-free ModelInto readers never contend with writers.
type spillTier struct {
	dim     int
	window  int
	f       *os.File
	wbuf    []byte // write scratch, guarded by Store.mu
	spilled int    // rounds [0,spilled) live on disk, guarded by Store.mu

	cmu   sync.Mutex
	cache []spillCacheEntry // MRU first, at most spillCacheRounds

	closeOnce sync.Once
	closeErr  error
}

// spillCacheEntry is one decoded hot round.
type spillCacheEntry struct {
	round int
	data  []float64
}

// newSpillTier opens the unlinked scratch file, or returns nil when
// spilling was not requested.
func newSpillTier(dim int, o storeOptions) (*spillTier, error) {
	if !o.spill {
		return nil, nil
	}
	if o.window < 1 {
		return nil, fmt.Errorf("history: spill window %d, must be >= 1", o.window)
	}
	f, err := os.CreateTemp(o.spillDir, "fuiov-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("history: create spill file: %w", err)
	}
	// Unlink immediately: the fd stays valid, and the kernel reclaims
	// the space when the store is closed or the process exits.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("history: unlink spill file: %w", err)
	}
	return &spillTier{
		dim:    dim,
		window: o.window,
		f:      f,
		wbuf:   make([]byte, dim*8),
	}, nil
}

func (sp *spillTier) close() error {
	sp.closeOnce.Do(func() { sp.closeErr = sp.f.Close() })
	return sp.closeErr
}

// maybeSpill moves rounds that aged out of the in-RAM window to the
// spill file. Called under Store.mu after a new round is published, so
// at most one round spills per call in steady state. The freshly
// recorded round is never spilled (window ≥ 1).
func (s *Store) maybeSpill(recs []*roundRecord, met *storeMetrics) error {
	sp := s.spill
	if sp == nil {
		return nil
	}
	for len(recs)-sp.spilled > sp.window {
		if err := sp.spillRound(recs[sp.spilled], sp.spilled); err != nil {
			return err
		}
		sp.spilled++
		met.spillRounds.Inc()
		met.spillBytes.Add(int64(8 * sp.dim))
	}
	return nil
}

// spillRound writes round r's snapshot at its fixed offset, then
// atomically swaps the record's model slot from RAM to file residency.
// Readers that loaded the old slot keep using the RAM copy; new
// readers go to disk. The swap happens only after the write fully
// succeeded, so a failed spill leaves the round readable from RAM.
func (sp *spillTier) spillRound(rec *roundRecord, r int) error {
	slot := rec.model.Load()
	if slot.ram == nil {
		return nil // already spilled (e.g. by Load)
	}
	for i, v := range slot.ram {
		binary.LittleEndian.PutUint64(sp.wbuf[i*8:], math.Float64bits(v))
	}
	off := int64(r) * int64(sp.dim) * 8
	if _, err := sp.f.WriteAt(sp.wbuf, off); err != nil {
		return fmt.Errorf("history: spill round %d: %w", r, err)
	}
	rec.model.Store(&modelSlot{off: off})
	return nil
}

// readInto serves a spilled round into dst, via the hot-round cache
// when possible, otherwise streaming the snapshot from the file
// through a stack-sized chunk buffer (no allocation on the miss path
// beyond the cache insert).
func (sp *spillTier) readInto(dst []float64, round int, off int64, met *storeMetrics) error {
	if sp.cacheLookup(round, dst) {
		met.spillHits.Inc()
		return nil
	}
	met.spillMisses.Inc()
	var buf [floatChunkBytes]byte
	for i := 0; i < len(dst); i += floatChunk {
		n := len(dst) - i
		if n > floatChunk {
			n = floatChunk
		}
		if _, err := sp.f.ReadAt(buf[:n*8], off+int64(i)*8); err != nil {
			return fmt.Errorf("history: read spilled round %d: %w", round, err)
		}
		for j := 0; j < n; j++ {
			dst[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[j*8:]))
		}
	}
	sp.cacheInsert(round, dst)
	return nil
}

// cacheLookup copies a cached round into dst and promotes it to MRU.
func (sp *spillTier) cacheLookup(round int, dst []float64) bool {
	sp.cmu.Lock()
	defer sp.cmu.Unlock()
	for i, e := range sp.cache {
		if e.round == round {
			copy(dst, e.data)
			copy(sp.cache[1:i+1], sp.cache[:i])
			sp.cache[0] = e
			return true
		}
	}
	return false
}

// cacheInsert records a freshly-read round as MRU, recycling the
// evicted entry's backing array when the cache is full.
func (sp *spillTier) cacheInsert(round int, data []float64) {
	sp.cmu.Lock()
	defer sp.cmu.Unlock()
	for _, e := range sp.cache {
		if e.round == round {
			return // raced with another reader; keep the existing copy
		}
	}
	var backing []float64
	if len(sp.cache) < spillCacheRounds {
		backing = make([]float64, len(data))
		sp.cache = append(sp.cache, spillCacheEntry{})
	} else {
		backing = sp.cache[len(sp.cache)-1].data
	}
	copy(backing, data)
	copy(sp.cache[1:], sp.cache[:len(sp.cache)-1])
	sp.cache[0] = spillCacheEntry{round: round, data: backing}
}
