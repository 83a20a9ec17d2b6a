package apps

import (
	"fmt"
	"math"

	"nowomp/internal/omp"
	"nowomp/internal/shmem"
	"nowomp/internal/simtime"
)

// FFT3DConfig parameterises the NAS-style 3-D FFT: each iteration
// applies a 1-D transform along z and along y within x-planes, then
// transposes the array and transforms along the third dimension —
// "a sequence of 3 1-dimensional transforms, with a transposition of
// the matrix between the second and the third transform" (section
// 5.2). The paper runs 128x64x64 for 100 iterations.
type FFT3DConfig struct {
	NX, NY, NZ int // powers of two
	Iters      int
	// PassCost charges each point once per 1-D transform pass;
	// TransposeCost charges each point moved by the transposition.
	PassCost      simtime.Seconds
	TransposeCost simtime.Seconds
}

// DefaultFFT3D returns the paper's Table 1 configuration.
func DefaultFFT3D() FFT3DConfig {
	return FFT3DConfig{
		NX: 128, NY: 64, NZ: 64, Iters: 100,
		PassCost: FFTCostPerPass, TransposeCost: FFTCostTranspose,
	}
}

// Scaled shrinks each dimension to the nearest power of two and the
// iteration count linearly; scale 1.0 is the paper's size. NY and NZ
// keep a floor of 16 so an x-plane is at least one page and plane
// partitions stay page-aligned (the paper's zero-diff behaviour).
func (c FFT3DConfig) Scaled(s float64) FFT3DConfig {
	c.NX = scalePow2(c.NX, s, 8)
	c.NY = scalePow2(c.NY, s, 16)
	c.NZ = scalePow2(c.NZ, s, 16)
	c.Iters = scaleDim(c.Iters, s, 2)
	return c
}

func (c FFT3DConfig) validate() error {
	for _, d := range []int{c.NX, c.NY, c.NZ} {
		if d < 2 || d&(d-1) != 0 {
			return fmt.Errorf("apps: fft3d dims must be powers of two >= 2, got %dx%dx%d", c.NX, c.NY, c.NZ)
		}
	}
	if c.Iters < 1 {
		return fmt.Errorf("apps: fft3d needs Iters >= 1, got %d", c.Iters)
	}
	return nil
}

// fftInit gives the deterministic initial field.
func fftInit(i, total int) complex128 {
	re := math.Sin(float64(i) * 0.7)
	im := math.Cos(float64(i%total) * 0.3)
	return complex(re, im)
}

// RunFFT3D executes the kernel. Layout: the current array holds
// dims (dx, dy, dz) row-major with z fastest, partitioned by x-plane;
// an iteration transforms along z and y inside each plane (local),
// transposes into the partner array as (dz, dy, dx) — the all-to-all
// phase responsible for the FFT's dominant network traffic in Table 1
// — and transforms along the new fastest axis. Arrays and dimensions
// swap for the next iteration.
func RunFFT3D(rt *omp.Runtime, cfg FFT3DConfig) (Result, error) {
	if cfg.PassCost == 0 {
		cfg.PassCost = FFTCostPerPass
	}
	if cfg.TransposeCost == 0 {
		cfg.TransposeCost = FFTCostTranspose
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	total := cfg.NX * cfg.NY * cfg.NZ
	arrs := make([]*shmem.Array[complex128], 2)
	for i := range arrs {
		a, err := omp.Alloc[complex128](rt, fmt.Sprintf("fft.a%d", i), total)
		if err != nil {
			return Result{}, err
		}
		arrs[i] = a
	}
	procs := rt.NProcs()

	rt.For("fft.init", 0, total, func(p *omp.Proc, lo, hi int) {
		buf := make([]complex128, hi-lo)
		for i := range buf {
			buf[i] = fftInit(lo+i, total)
		}
		arrs[0].WriteRange(p.Mem(), lo, buf)
		p.ChargeUnits(hi-lo, InitCostPerElement)
	})

	// One transform plan per distinct dimension, shared by every pass
	// and process of the run (plans are read-only once built).
	plans := map[int]*fftPlan{}
	for _, d := range []int{cfg.NX, cfg.NY, cfg.NZ} {
		if plans[d] == nil {
			plans[d] = newFFTPlan(d)
		}
	}

	cur := 0
	dx, dy, dz := cfg.NX, cfg.NY, cfg.NZ
	for it := 0; it < cfg.Iters; it++ {
		src, dst := arrs[cur], arrs[1-cur]
		planX, planY, planZ := plans[dx], plans[dy], plans[dz]

		// Passes 1 and 2: transform along z, then along y, inside each
		// x-plane. Planes are contiguous and block-partitioned, so this
		// phase is all local after the plane is resident.
		dyz := dy * dz
		rt.For("fft.planes", 0, dx, func(p *omp.Proc, lo, hi int) {
			plane := make([]complex128, dyz)
			col := make([]complex128, dy)
			for x := lo; x < hi; x++ {
				src.ReadRange(p.Mem(), x*dyz, (x+1)*dyz, plane)
				for y := 0; y < dy; y++ {
					planZ.transform(plane[y*dz : (y+1)*dz])
				}
				for z := 0; z < dz; z++ {
					for y := 0; y < dy; y++ {
						col[y] = plane[y*dz+z]
					}
					planY.transform(col)
					for y := 0; y < dy; y++ {
						plane[y*dz+z] = col[y]
					}
				}
				src.WriteRange(p.Mem(), x*dyz, plane)
			}
			p.ChargeUnits(2*(hi-lo)*dyz, cfg.PassCost)
		})

		// Transposition: dst[z][y][x] = src[x][y][z], partitioned by
		// destination z-plane. Each process reads a z-slab of every
		// (x, y) pencil — the all-to-all exchange.
		dyx := dy * dx
		rt.For("fft.transpose", 0, dz, func(p *omp.Proc, lo, hi int) {
			nzb := hi - lo
			slab := make([]complex128, nzb)
			out := make([]complex128, nzb*dyx)
			for x := 0; x < dx; x++ {
				for y := 0; y < dy; y++ {
					base := (x*dy + y) * dz
					// A z-slab is a sub-run of one pencil; pencils are
					// power-of-two sized and aligned, so the slab sits in
					// one page and the typed span reads it without a
					// decode pass. The staged path covers dims large
					// enough to straddle pages.
					if s := src.ReadSpan(p.Mem(), base+lo, base+hi); len(s) == nzb {
						for zi, v := range s {
							out[zi*dyx+y*dx+x] = v
						}
					} else {
						src.ReadRange(p.Mem(), base+lo, base+hi, slab)
						for zi, v := range slab {
							out[zi*dyx+y*dx+x] = v
						}
					}
				}
			}
			dst.WriteRange(p.Mem(), lo*dyx, out)
			p.ChargeUnits(nzb*dyx, cfg.TransposeCost)
		})

		// Pass 3: transform along x, now the fastest axis of dst.
		rt.For("fft.third", 0, dz, func(p *omp.Proc, lo, hi int) {
			// Rows along the new fastest axis are power-of-two sized and
			// aligned, so each fits in one page span and the butterflies
			// run in place on page memory: the WriteSpan faults and twins
			// exactly as the staged read+write pair did.
			var row []complex128 // staged fallback for page-straddling dims
			for z := lo; z < hi; z++ {
				for y := 0; y < dy; y++ {
					off := (z*dy + y) * dx
					if s := dst.WriteSpan(p.Mem(), off, off+dx); len(s) == dx {
						planX.transform(s)
						continue
					}
					if row == nil {
						row = make([]complex128, dx)
					}
					dst.ReadRange(p.Mem(), off, off+dx, row)
					planX.transform(row)
					dst.WriteRange(p.Mem(), off, row)
				}
			}
			p.ChargeUnits((hi-lo)*dyx, cfg.PassCost)
		})

		cur = 1 - cur
		dx, dz = dz, dx
	}

	// Timing and traffic are measured at the end of the computation;
	// the verification checksum below is outside the paper's window.
	res := measure(rt, "fft3d", procs)
	mp := rt.MasterProc()
	const chunk = 4096
	sum := 0.0
	buf := make([]complex128, chunk)
	for off := 0; off < total; off += chunk {
		end := off + chunk
		if end > total {
			end = total
		}
		arrs[cur].ReadRange(mp.Mem(), off, end, buf[:end-off])
		for _, v := range buf[:end-off] {
			sum += math.Abs(real(v)) + math.Abs(imag(v))
		}
	}
	res.Checksum = sum
	return res, nil
}

// FFT3DReference computes the checksum of the identical sequential
// run: same transforms, same transposition, same order.
func FFT3DReference(cfg FFT3DConfig) float64 {
	total := cfg.NX * cfg.NY * cfg.NZ
	a := make([]complex128, total)
	b := make([]complex128, total)
	for i := range a {
		a[i] = fftInit(i, total)
	}
	src, dst := a, b
	dx, dy, dz := cfg.NX, cfg.NY, cfg.NZ
	col := make([]complex128, cfg.NY)
	for it := 0; it < cfg.Iters; it++ {
		dyz := dy * dz
		for x := 0; x < dx; x++ {
			plane := src[x*dyz : (x+1)*dyz]
			for y := 0; y < dy; y++ {
				fft1D(plane[y*dz : (y+1)*dz])
			}
			for z := 0; z < dz; z++ {
				for y := 0; y < dy; y++ {
					col[y] = plane[y*dz+z]
				}
				fft1D(col[:dy])
				for y := 0; y < dy; y++ {
					plane[y*dz+z] = col[y]
				}
			}
		}
		for x := 0; x < dx; x++ {
			for y := 0; y < dy; y++ {
				for z := 0; z < dz; z++ {
					dst[(z*dy+y)*dx+x] = src[(x*dy+y)*dz+z]
				}
			}
		}
		for z := 0; z < dz; z++ {
			for y := 0; y < dy; y++ {
				fft1D(dst[(z*dy+y)*dx : (z*dy+y)*dx+dx])
			}
		}
		src, dst = dst, src
		dx, dz = dz, dx
	}
	sum := 0.0
	for _, v := range src {
		sum += math.Abs(real(v)) + math.Abs(imag(v))
	}
	return sum
}
