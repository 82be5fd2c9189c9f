package sign

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode: arbitrary bytes must either fail cleanly or decode into
// a direction that re-encodes to the identical buffer, and FromPacked —
// handed the declared length and the payload — must accept exactly what
// Decode accepts and build the same direction.
func FuzzDecode(f *testing.F) {
	d, _ := Compress([]float64{1, -1, 0, 0.5, -0.5}, 0.4)
	f.Add(d.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, err := Decode(data)
		if len(data) >= 8 {
			n := int(binary.LittleEndian.Uint64(data))
			owned, ownedErr := FromPacked(n, bytes.Clone(data[8:]))
			if (ownedErr == nil) != (err == nil) {
				t.Fatalf("FromPacked(%d, % x) → %v, Decode → %v", n, data[8:], ownedErr, err)
			}
			if err == nil && !bytes.Equal(owned.Encode(), data) {
				t.Fatalf("FromPacked re-encodes %x as %x", data, owned.Encode())
			}
		}
		if err != nil {
			return
		}
		if got := dir.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not idempotent: %x -> %x", data, got)
		}
		for i := 0; i < dir.Len(); i++ {
			v := dir.At(i)
			if v != -1 && v != 0 && v != 1 {
				t.Fatalf("element %d = %v", i, v)
			}
		}
	})
}
