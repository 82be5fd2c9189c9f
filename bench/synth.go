package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fuiov/internal/history"
	"fuiov/internal/rng"
	"fuiov/internal/server"
)

// FUV1 upload frame layout (PROTOCOL.md): magic(4) encoding(1)
// client(8) round(8) weight(8) scale(8) dim(8), then the payload. The
// synthetic vehicles encode one frame with server.WriteUpload and from
// then on patch it in place, so the generator's own CPU stays small.
const (
	frameRoundOff   = 4 + 1 + 8
	frameHeaderLen  = 4 + 1 + 8 + 8 + 8 + 8 + 8
	signPayloadSkip = 8 // sign.Direction.Encode's length prefix
	signDelta       = 1e-6
)

// synthVehicle is one synthetic vehicle: a pre-encoded upload frame
// whose gradient evolves round by round.
//
// The gradient stands in for descent on a convex bowl: every element
// starts at s_k·m (s_k a sign shared by the fleet, m a per-vehicle
// magnitude) and flips sign once, at a round drawn per vehicle and
// element — the coordinate passing its optimum. Stored directions thus
// change against the aggregate step, which gives the L-BFGS pairs the
// positive curvature the recovery needs; a constant or random gradient
// would send every recovered round down the degenerate fallback and
// leave lbfgs and sign.AccumulateInto unmeasured.
type synthVehicle struct {
	id     history.ClientID
	weight float64
	enc    server.Encoding
	frame  []byte
	// flips[t] lists the elements whose sign flips entering round t.
	flips [][]int32
	// applied is the last round whose flips are in the frame.
	applied int
}

// newSynthFleet builds n vehicles of the given dimension. Every
// element flips once, at a round drawn uniformly from [1, 2·rounds]:
// half the flips fall inside a workload's R rounds, and a fleet that
// keeps driving (unlearn_overlap) settles to a constant gradient after
// 2R. The same arguments always build the same fleet.
func newSynthFleet(seed uint64, n, dim, rounds int, enc server.Encoding) ([]*synthVehicle, error) {
	signs := make([]float64, dim)
	sr := rng.New(rng.Mix(seed, 0x5167))
	for k := range signs {
		signs[k] = 1
		if sr.Bernoulli(0.5) {
			signs[k] = -1
		}
	}
	fleet := make([]*synthVehicle, n)
	grad := make([]float64, dim)
	for i := range fleet {
		r := rng.New(rng.Mix(seed, 0xf1ee7, uint64(i)))
		v := &synthVehicle{
			id:     history.ClientID(i),
			weight: float64(40 + r.IntN(40)),
			enc:    enc,
			flips:  make([][]int32, 2*rounds+1),
		}
		for k := range grad {
			grad[k] = signs[k] * r.Uniform(0.5, 1.5)
			t := 1 + r.IntN(2*rounds)
			v.flips[t] = append(v.flips[t], int32(k))
		}
		var buf bytes.Buffer
		if err := server.WriteUpload(&buf, v.id, 0, v.weight, enc, grad, signDelta, 1); err != nil {
			return nil, fmt.Errorf("encode vehicle %d: %w", i, err)
		}
		v.frame = buf.Bytes()
		fleet[i] = v
	}
	return fleet, nil
}

// frameFor returns the vehicle's upload frame for round t, patching
// the round field and the sign flips of every round since the last
// call. Rounds must not go backwards. The returned slice is the
// vehicle's own buffer: it is valid until the next call.
func (v *synthVehicle) frameFor(t int) []byte {
	for r := v.applied + 1; r <= t && r < len(v.flips); r++ {
		for _, k := range v.flips[r] {
			if v.enc == server.EncodingSign {
				// 2-bit slots, +1 = 01 and −1 = 10: XOR 11 swaps them.
				v.frame[frameHeaderLen+signPayloadSkip+int(k)/4] ^= 0b11 << (2 * (uint(k) % 4))
			} else {
				// Little-endian float64: the sign bit is the top bit of
				// the last byte.
				v.frame[frameHeaderLen+8*int(k)+7] ^= 0x80
			}
		}
	}
	v.applied = t
	binary.LittleEndian.PutUint64(v.frame[frameRoundOff:], uint64(t))
	return v.frame
}

// decode parses the vehicle's round-t frame with the server's own
// reader — the in-process twin's source of gradients, and a check that
// the in-place patching keeps the frame well formed.
func (v *synthVehicle) decode(t, dim int) ([]float64, error) {
	up, err := server.ReadUpload(bytes.NewReader(v.frameFor(t)), dim)
	if err != nil {
		return nil, err
	}
	if up.Round != t || up.Client != v.id {
		return nil, fmt.Errorf("frame of vehicle %d round %d decodes as vehicle %d round %d", v.id, t, up.Client, up.Round)
	}
	return up.Grad, nil
}
