package sign

// Helpers the tests use as fixtures and references; no production
// code calls them.

// Dense expands the direction to a []float64 of {-1, 0, +1} values.
func (d *Direction) Dense() []float64 {
	out := make([]float64, d.n)
	d.DenseInto(out)
	return out
}

// CountNonZero returns the number of ±1 elements, one decode-table
// entry per four elements; padding slots are zero by construction and
// never count.
func (d *Direction) CountNonZero() int {
	var c int
	for _, b := range d.packed {
		for _, v := range denseLUT[b] {
			if v != 0 {
				c++
			}
		}
	}
	return c
}
