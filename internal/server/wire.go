package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"fuiov/internal/history"
	"fuiov/internal/sign"
)

// Wire framing of the RSU protocol's two binary payloads: client
// gradient uploads (POST /v1/round request bodies) and model snapshots
// (GET /v1/model/{round} response bodies). Everything else on the wire
// is JSON. The full byte-level specification lives in PROTOCOL.md; the
// constants and layouts here are the single implementation of it,
// shared by the server handlers and the client agents.
//
// Both frames are designed for streaming: a fixed-size header is
// followed by a payload whose length the header fully determines, so a
// reader can decode incrementally — header first, then the payload
// straight into the destination buffer — without ever holding the
// whole body in a second copy.

// Frame magics. A reader that sees anything else fails immediately
// with ErrBadFrame rather than misinterpreting the stream.
const (
	// UploadMagic opens every gradient upload frame ("FUV1").
	UploadMagic = "FUV1"
	// ModelMagic opens every model snapshot frame ("FMD1").
	ModelMagic = "FMD1"
)

// Encoding selects how a gradient upload is serialised.
type Encoding byte

const (
	// EncodingDense ships the exact float64 gradient, 8 bytes per
	// element. It is byte-exact: the server aggregates precisely the
	// vector the client computed, which is what makes an HTTP round
	// bit-identical to an in-process one.
	EncodingDense Encoding = 0
	// EncodingSign ships the thresholded 2-bit direction of the
	// gradient (internal/sign) plus one float64 scale — a 32× smaller
	// upload carrying sign(g)·scale, the RSA-style sign-SGD upload of
	// §III-C. It is lossy by construction: magnitudes are collapsed to
	// the scale, so sign rounds are not bit-comparable to dense ones.
	EncodingSign Encoding = 1
)

// String names the encoding for logs and JSON.
func (e Encoding) String() string {
	switch e {
	case EncodingDense:
		return "dense"
	case EncodingSign:
		return "sign"
	default:
		return fmt.Sprintf("encoding(%d)", byte(e))
	}
}

// ParseEncoding maps the wire/flag names back to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "dense", "":
		return EncodingDense, nil
	case "sign":
		return EncodingSign, nil
	default:
		return 0, fmt.Errorf("server: unknown upload encoding %q (want dense or sign)", s)
	}
}

// ErrBadFrame marks a binary frame rejected by a reader: wrong magic,
// impossible lengths, an unusable weight or sign scale, or a corrupt
// sign payload.
var ErrBadFrame = errors.New("server: malformed wire frame")

// uploadHeaderLen is the fixed prefix of an upload frame:
// magic(4) + encoding(1) + client(8) + round(8) + weight(8) +
// scale(8) + dim(8).
const uploadHeaderLen = 4 + 1 + 8 + 8 + 8 + 8 + 8

// signLenPrefix is the element count sign.Direction.Encode writes ahead
// of the packed payload (8 bytes, little-endian).
const signLenPrefix = 8

// modelHeaderLen is the fixed prefix of a model frame:
// magic(4) + round(8) + dim(8).
const modelHeaderLen = 4 + 8 + 8

// chunkElems is how many float64 elements a streaming writer encodes
// per chunk (64 KiB of payload).
const chunkElems = 8192

// Upload is one decoded client gradient upload.
type Upload struct {
	// Client is the uploading vehicle.
	Client history.ClientID
	// Round is the federated round the gradient was computed for.
	Round int
	// Weight is the client's aggregation weight |Dᵢ| (eq. 1).
	Weight float64
	// Encoding records how the gradient travelled.
	Encoding Encoding
	// Grad is the dense gradient. For EncodingSign it is the decoded
	// sign(g)·scale vector, Dir.Scaled(Scale).
	Grad []float64
	// Dir and Scale are a sign upload as it travelled: the packed 2-bit
	// direction, which owns the payload bytes read off the wire, and the
	// finite magnitude every non-zero element stands for. Dir is nil on
	// a dense upload.
	Dir   *sign.Direction
	Scale float64
	// PayloadBytes is the on-wire payload size (telemetry).
	PayloadBytes int
}

// WriteUpload serialises one gradient upload to w. For EncodingDense
// the gradient travels exactly; for EncodingSign it is compressed to
// its thresholded 2-bit direction with the given delta and scale
// (sign mode ignores neither: the receiver reconstructs
// sign(g)·scale).
func WriteUpload(w io.Writer, client history.ClientID, round int, weight float64, enc Encoding, grad []float64, delta, scale float64) error {
	if round < 0 {
		return fmt.Errorf("server: negative round %d", round)
	}
	var payload []byte
	switch enc {
	case EncodingDense:
		// Streamed below; no pre-built payload.
	case EncodingSign:
		d, err := sign.Compress(grad, delta)
		if err != nil {
			return fmt.Errorf("server: compress upload: %w", err)
		}
		payload = d.Encode()
	default:
		return fmt.Errorf("server: unknown encoding %d", enc)
	}

	hdr := make([]byte, uploadHeaderLen)
	copy(hdr, UploadMagic)
	hdr[4] = byte(enc)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(client))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(round))
	binary.LittleEndian.PutUint64(hdr[21:], math.Float64bits(weight))
	binary.LittleEndian.PutUint64(hdr[29:], math.Float64bits(scale))
	binary.LittleEndian.PutUint64(hdr[37:], uint64(len(grad)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if enc == EncodingSign {
		_, err := w.Write(payload)
		return err
	}
	return writeFloats(w, grad)
}

// ReadUpload decodes one gradient upload from r. dim is the model
// dimension the server expects; a frame declaring any other length is
// rejected before its payload is read, so a malicious or confused
// client cannot make the server allocate unboundedly. A frame whose
// aggregation weight is NaN, infinite or negative is rejected the same
// way, and so is a sign frame whose scale is NaN or infinite: one such
// value would poison the whole round's aggregate.
func ReadUpload(r io.Reader, dim int) (*Upload, error) {
	up, err := readUpload(r, dim, nil)
	if err != nil {
		return nil, err
	}
	if up.Dir != nil {
		up.Grad = up.Dir.Scaled(up.Scale)
	}
	return up, nil
}

// readUpload is ReadUpload stopping at what travelled: a sign upload
// comes back as (Dir, Scale) with Grad nil — the payload is read
// straight into the direction's own storage and validated in place,
// and nothing dim×8 bytes large is built. The round handler folds that
// form as it is (fl.RoundStream.AddDirection). A dense payload is read
// into a frame from frames when it has one (nil frames, or an empty
// list, allocates); a frame that fails to fill goes back.
func readUpload(r io.Reader, dim int, frames *framePool) (*Upload, error) {
	// Room for a sign payload's own length prefix behind the header.
	hdr := make([]byte, uploadHeaderLen, uploadHeaderLen+signLenPrefix)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short upload header: %v", ErrBadFrame, err)
	}
	if string(hdr[:4]) != UploadMagic {
		return nil, fmt.Errorf("%w: bad upload magic %q", ErrBadFrame, hdr[:4])
	}
	enc := Encoding(hdr[4])
	up := &Upload{
		Client:   history.ClientID(binary.LittleEndian.Uint64(hdr[5:])),
		Round:    int(binary.LittleEndian.Uint64(hdr[13:])),
		Weight:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[21:])),
		Encoding: enc,
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(hdr[29:]))
	n := binary.LittleEndian.Uint64(hdr[37:])
	if n != uint64(dim) {
		return nil, fmt.Errorf("%w: upload dimension %d, want %d", ErrBadFrame, n, dim)
	}
	if up.Round < 0 {
		return nil, fmt.Errorf("%w: negative round", ErrBadFrame)
	}
	if math.IsNaN(up.Weight) || math.IsInf(up.Weight, 0) || up.Weight < 0 {
		return nil, fmt.Errorf("%w: upload weight %v is not finite and non-negative", ErrBadFrame, up.Weight)
	}

	switch enc {
	case EncodingDense:
		if up.Grad = frames.get(dim); up.Grad == nil {
			up.Grad = make([]float64, dim)
		}
		if err := readFloats(r, up.Grad); err != nil {
			frames.put(up.Grad)
			return nil, fmt.Errorf("%w: short dense payload: %v", ErrBadFrame, err)
		}
		up.PayloadBytes = 8 * dim
	case EncodingSign:
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("%w: sign scale %v is not finite", ErrBadFrame, scale)
		}
		prefix := hdr[uploadHeaderLen : uploadHeaderLen+signLenPrefix]
		if _, err := io.ReadFull(r, prefix); err != nil {
			return nil, fmt.Errorf("%w: short sign payload: %v", ErrBadFrame, err)
		}
		if pn := binary.LittleEndian.Uint64(prefix); pn != uint64(dim) {
			return nil, fmt.Errorf("%w: sign payload length %d, want %d", ErrBadFrame, pn, dim)
		}
		packed := make([]byte, sign.PackedLen(dim))
		if _, err := io.ReadFull(r, packed); err != nil {
			return nil, fmt.Errorf("%w: short sign payload: %v", ErrBadFrame, err)
		}
		d, err := sign.FromPacked(dim, packed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		up.Dir, up.Scale = d, scale
		up.PayloadBytes = signLenPrefix + len(packed)
	default:
		return nil, fmt.Errorf("%w: unknown encoding %d", ErrBadFrame, byte(enc))
	}
	return up, nil
}

// WriteModel serialises a model snapshot frame for round t.
func WriteModel(w io.Writer, round int, params []float64) error {
	hdr := make([]byte, modelHeaderLen)
	copy(hdr, ModelMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(round))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(params)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return writeFloats(w, params)
}

// ReadModel decodes a model snapshot frame, returning the round it
// carries and the parameters. maxDim bounds the accepted dimension
// (<= 0 means any); agents pass their template's parameter count.
func ReadModel(r io.Reader, maxDim int) (round int, params []float64, err error) {
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("%w: short model header: %v", ErrBadFrame, err)
	}
	round, n, err := parseModelHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	if maxDim > 0 && n != uint64(maxDim) {
		return 0, nil, fmt.Errorf("%w: model dimension %d, want %d", ErrBadFrame, n, maxDim)
	}
	params = make([]float64, n)
	if err := readFloats(r, params); err != nil {
		return 0, nil, fmt.Errorf("%w: short model payload: %v", ErrBadFrame, err)
	}
	return round, params, nil
}

// ModelFrameLen is the size in bytes of a model snapshot frame carrying
// dim parameters.
func ModelFrameLen(dim int) int { return modelHeaderLen + 8*dim }

// DecodeModel decodes a complete in-memory model snapshot frame into
// dst, whose length is the dimension the caller expects, and returns
// the round the frame carries. It allocates nothing, so an agent that
// keeps its frame buffer and parameter vector pays no per-round
// garbage for the model fetch.
func DecodeModel(frame []byte, dst []float64) (round int, err error) {
	if len(frame) < modelHeaderLen {
		return 0, fmt.Errorf("%w: short model header: %d bytes", ErrBadFrame, len(frame))
	}
	round, n, err := parseModelHeader(frame[:modelHeaderLen])
	if err != nil {
		return 0, err
	}
	if n != uint64(len(dst)) {
		return 0, fmt.Errorf("%w: model dimension %d, want %d", ErrBadFrame, n, len(dst))
	}
	payload := frame[modelHeaderLen:]
	if len(payload) != 8*len(dst) {
		return 0, fmt.Errorf("%w: model payload %d bytes, want %d", ErrBadFrame, len(payload), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return round, nil
}

// parseModelHeader validates a model frame's fixed prefix and returns
// the round and dimension it declares.
func parseModelHeader(hdr []byte) (round int, n uint64, err error) {
	if string(hdr[:4]) != ModelMagic {
		return 0, 0, fmt.Errorf("%w: bad model magic %q", ErrBadFrame, hdr[:4])
	}
	round = int(binary.LittleEndian.Uint64(hdr[4:]))
	n = binary.LittleEndian.Uint64(hdr[12:])
	if n > 1<<31 {
		return 0, 0, fmt.Errorf("%w: model dimension %d", ErrBadFrame, n)
	}
	return round, n, nil
}

// chunkPool holds the chunkElems-sized staging buffers a big-endian
// host's writeFloats swaps payload through, so a model write does not
// allocate one of its own.
var chunkPool = sync.Pool{New: func() any { return new([8 * chunkElems]byte) }}

// writeFloats writes v as little-endian float64s. On a little-endian
// host those are v's own bytes, written as they lie, mirroring
// readFloats; a big-endian host swaps chunkElems-sized chunks through a
// pooled buffer, so neither side ever materialises the whole payload
// twice.
func writeFloats(w io.Writer, v []float64) error {
	if hostLittleEndian {
		if len(v) == 0 {
			return nil
		}
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		return err
	}
	buf := chunkPool.Get().(*[8 * chunkElems]byte)
	defer chunkPool.Put(buf)
	for len(v) > 0 {
		n := min(len(v), chunkElems)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// hostLittleEndian reports whether float64s sit in memory in wire
// order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readFloats fills dst from r by reading the payload straight into
// dst's own bytes: on a little-endian host the read is the decode, and
// a big-endian host swaps each element in place afterwards.
func readFloats(r io.Reader, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if !hostLittleEndian {
		swap8(b)
	}
	return nil
}

// swap8 reverses the byte order of every 8-byte word of b in place.
func swap8(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
	}
}
