package history

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzLoad: arbitrary bytes must never panic Load; valid snapshots
// must round trip through Save with identical bytes.
func FuzzLoad(f *testing.F) {
	s, _ := NewStore(3, 1e-3)
	_ = s.RecordRound(0, []float64{1, 2, 3},
		map[ClientID][]float64{1: {0.5, -0.5, 0}}, map[ClientID]float64{1: 7})
	var buf bytes.Buffer
	_ = s.Save(&buf)
	f.Add(buf.Bytes())
	f.Add(withDelta(buf.Bytes(), math.NaN()))
	f.Add([]byte{})
	f.Add([]byte("FUIOVHS1 garbage follows the magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := store.Save(&out); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("load/save not idempotent (%d vs %d bytes)", out.Len(), len(data))
		}
	})
}

// FuzzLoadStore: the facade's LoadStore path — Load with the spill
// tier enabled, which re-spills rounds as they stream in. Corrupt or
// truncated snapshot bytes must come back as errors (ErrBadFormat for
// anything the codec rejects), never a panic or an unbounded
// allocation; accepted snapshots must reserialise to the same bytes
// even though most of their rounds now live in the spill file.
func FuzzLoadStore(f *testing.F) {
	s, _ := NewStore(3, 1e-3)
	for t := 0; t < 6; t++ {
		model := []float64{float64(t), float64(t) * 0.5, -float64(t)}
		_ = s.RecordRound(t, model,
			map[ClientID][]float64{1: {0.5, -0.5, 0}, 2: {0, 0.25, -1}},
			map[ClientID]float64{1: 7, 2: 3})
	}
	var buf bytes.Buffer
	_ = s.Save(&buf)
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])          // truncated mid-round
	f.Add(valid[:9])                     // truncated inside the header
	f.Add(append(bytes.Clone(valid), 0)) // trailing garbage
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	// Forged header claiming a dimension beyond the codec's cap.
	forged := bytes.Clone(valid[:16])
	binary.LittleEndian.PutUint64(forged[8:], 1<<40)
	f.Add(forged)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := Load(bytes.NewReader(data), WithSpill(t.TempDir(), 2))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection not tagged ErrBadFormat: %v", err)
			}
			return
		}
		defer store.Close()
		var out bytes.Buffer
		if err := store.Save(&out); err != nil {
			t.Fatalf("reserialise spilled store: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("spilled load/save not idempotent (%d vs %d bytes)", out.Len(), len(data))
		}
	})
}
