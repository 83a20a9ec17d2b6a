package shmem

import (
	"encoding/binary"
	"math"
	"testing"

	"nowomp/internal/page"
)

// layoutCase writes vals into a region of T so that they straddle the
// first page boundary, once element by element through Set and once in
// bulk through WriteRange, and compares the region's bytes — what a
// checkpoint writes to disk — with an oracle built by put, which knows
// nothing of the accessors. Every byte outside vals must still be zero.
func layoutCase[T Element](t *testing.T, name string, vals []T, put func(b []byte, v T)) {
	t.Helper()
	elem := Sizeof[T]()
	perPage := page.Size / elem
	n := perPage + len(vals)
	// An even start index keeps 4-byte neighbours inside one diff word.
	lo := (perPage - len(vals)/2) &^ 1

	want := make([]byte, n*elem)
	for i, v := range vals {
		put(want[(lo+i)*elem:(lo+i+1)*elem], v)
	}

	c, m := masterCluster(t)
	for _, w := range []struct {
		how   string
		write func(a *Array[T])
	}{
		{"Set", func(a *Array[T]) {
			for i, v := range vals {
				a.Set(m, lo+i, v)
			}
		}},
		{"WriteRange", func(a *Array[T]) { a.WriteRange(m, lo, vals) }},
	} {
		a, err := Alloc[T](c, name+"/"+w.how, n)
		if err != nil {
			t.Fatal(err)
		}
		w.write(a)
		got, err := c.DumpRegion(a.Region())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s via %s: region is %d bytes, want %d", name, w.how, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s via %s: region byte %d (element %d, byte %d of it) = %#02x, want %#02x",
					name, w.how, i, i/elem, i%elem, got[i], want[i])
			}
		}
	}
}

// TestRegionBytesAreLittleEndian pins the region layout, which is the
// checkpoint file format: every Element is stored as its little-endian
// bit pattern, elements packed with no padding, a complex128 as its
// real half then its imaginary half. The oracle is encoding/binary and
// math.Float*bits, not the package's own code.
func TestRegionBytesAreLittleEndian(t *testing.T) {
	le := binary.LittleEndian
	qnan := math.Float64frombits(0x7ff8_dead_beef_0001) // quiet NaN carrying a payload
	snan := math.Float64frombits(0x7ff0_0000_0000_0001) // signalling NaN
	negZero := math.Copysign(0, -1)

	layoutCase(t, "f32", []float32{
		// Each pair shares one 8-byte diff word.
		1.5, -2.25,
		math.Float32frombits(0x7fc1_2345), math.Float32frombits(0xff80_0001),
		float32(negZero), math.SmallestNonzeroFloat32,
		math.MaxFloat32, float32(math.Inf(-1)),
	}, func(b []byte, v float32) { le.PutUint32(b, math.Float32bits(v)) })

	layoutCase(t, "f64", []float64{
		1.5, negZero, qnan, snan, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300,
	}, func(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) })

	layoutCase(t, "z128", []complex128{
		complex(1.5, -2.25), complex(negZero, qnan), complex(snan, math.Inf(-1)), complex(math.MaxFloat64, 3),
	}, func(b []byte, v complex128) {
		le.PutUint64(b, math.Float64bits(real(v)))
		le.PutUint64(b[8:], math.Float64bits(imag(v)))
	})

	layoutCase(t, "i32", []int32{
		math.MinInt32, math.MaxInt32, -1, 0x01020304, 0, 1, -0x01020304, 42,
	}, func(b []byte, v int32) { le.PutUint32(b, uint32(v)) })

	layoutCase(t, "i64", []int64{
		math.MinInt64, math.MaxInt64, -1, 0x0102030405060708, 0, 1,
	}, func(b []byte, v int64) { le.PutUint64(b, uint64(v)) })

	layoutCase(t, "u8", []uint8{
		0, 1, 0x7f, 0x80, 0xff, 0x55, 0xaa, 2, 3, 4, 5, 6,
	}, func(b []byte, v uint8) { b[0] = v })
}
