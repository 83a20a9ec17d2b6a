package apps

import (
	"fmt"

	"nowomp/internal/omp"
	"nowomp/internal/shmem"
	"nowomp/internal/simtime"
)

// NBFConfig parameterises the non-bonded-force kernel of a molecular
// dynamics code: Atoms atoms, each with Partners interaction partners
// drawn from a window around it (the array indices are not linear
// expressions in the loop variables — the paper's example of an
// irregular application). The paper runs 131072 atoms x 80 partners
// for 100 iterations with 52 MB of shared memory, dominated by the
// partner lists.
type NBFConfig struct {
	Atoms    int
	Partners int
	Iters    int
	// Window bounds how far a partner index may be from its atom;
	// zero means Atoms/16.
	Window int
	// PairCost is the calibrated per-interaction compute charge;
	// UpdateCost the per-atom position-update charge.
	PairCost   simtime.Seconds
	UpdateCost simtime.Seconds
}

// DefaultNBF returns the paper's Table 1 configuration.
func DefaultNBF() NBFConfig {
	return NBFConfig{
		Atoms: 131072, Partners: 80, Iters: 100,
		PairCost: NBFCostPerPair, UpdateCost: NBFCostPerUpdate,
	}
}

// Scaled shrinks atoms, partners and iterations linearly; scale 1.0
// is the paper's size. Atoms are kept a multiple of 4096 so the
// float64 position/force blocks stay page-aligned for power-of-two
// team sizes, preserving the paper's zero-diff behaviour.
func (c NBFConfig) Scaled(s float64) NBFConfig {
	a := scaleDim(c.Atoms, s, 4096)
	a = (a + 2048) / 4096 * 4096
	if a < 4096 {
		a = 4096
	}
	c.Atoms = a
	c.Partners = scaleDim(c.Partners, s, 4)
	c.Iters = scaleDim(c.Iters, s, 2)
	return c
}

func (c NBFConfig) validate() error {
	if c.Atoms < 2 || c.Partners < 1 || c.Iters < 1 {
		return fmt.Errorf("apps: nbf needs Atoms >= 2, Partners >= 1, Iters >= 1, got %+v", c)
	}
	return nil
}

func (c NBFConfig) window() int {
	w := c.Window
	if w <= 0 {
		w = c.Atoms / 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// nbfPartner deterministically picks partner m of atom i within the
// window: irregular but reproducible.
func nbfPartner(i, m, atoms, window int) int32 {
	h := uint32(i)*2654435761 ^ uint32(m*40503)
	h ^= h >> 13
	h *= 2246822519
	h ^= h >> 16
	off := int(h%uint32(2*window+1)) - window
	j := (i + off) % atoms
	if j < 0 {
		j += atoms
	}
	if j == i {
		j = (j + 1) % atoms
	}
	return int32(j)
}

func nbfInitPos(i int, d int) float64 {
	return float64((i*7+d*13)%1000)/1000 + float64(i)*1e-6
}

// nbfForce is the softened inverse-square pair interaction. The
// conversions round every product before it is added, so where go1.24
// fuses a multiply into an add (arm64) or may (ppc64le, s390x) it
// computes the same bits as the unfused SSE2 nbfSum; on amd64 it fuses
// nothing, at GOAMD64=v1 or v3.
func nbfForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64) {
	dx, dy, dz := xj-xi, yj-yi, zj-zi
	r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + 0.01
	inv := 1 / (r2 * r2)
	return float64(dx * inv), float64(dy * inv), float64(dz * inv)
}

const nbfDT = 1e-7

// RunNBF executes the kernel: each iteration computes forces over the
// partner lists (reading other processes' position pages — the
// sustained traffic of Table 1) and then integrates positions, each
// process writing only its own block (single-writer pages, zero
// diffs). Positions and forces are float64 so block boundaries are
// word-aligned.
func RunNBF(rt *omp.Runtime, cfg NBFConfig) (Result, error) {
	if cfg.PairCost == 0 {
		cfg.PairCost = NBFCostPerPair
	}
	if cfg.UpdateCost == 0 {
		cfg.UpdateCost = NBFCostPerUpdate
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n, k := cfg.Atoms, cfg.Partners
	window := cfg.window()

	pos := make([]*shmem.Array[float64], 3)
	frc := make([]*shmem.Array[float64], 3)
	for d := 0; d < 3; d++ {
		var err error
		if pos[d], err = omp.Alloc[float64](rt, fmt.Sprintf("nbf.pos%d", d), n); err != nil {
			return Result{}, err
		}
		if frc[d], err = omp.Alloc[float64](rt, fmt.Sprintf("nbf.frc%d", d), n); err != nil {
			return Result{}, err
		}
	}
	// Atom i's partners sit at [i*stride, i*stride+k). The list is
	// int32, two to a DSM word, and each process initialises its own
	// block of atoms: with an odd k an odd block boundary would split a
	// word between two writers — a sub-word race — so an odd k is padded
	// to an even stride. An even k keeps stride == k, byte for byte.
	stride := k + k%2
	partners, err := omp.Alloc[int32](rt, "nbf.partners", n*stride)
	if err != nil {
		return Result{}, err
	}
	procs := rt.NProcs()

	rt.For("nbf.init", 0, n, func(p *omp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for d := 0; d < 3; d++ {
			for i := range buf {
				buf[i] = nbfInitPos(lo+i, d)
			}
			pos[d].WriteRange(p.Mem(), lo, buf)
			for i := range buf {
				buf[i] = 0
			}
			frc[d].WriteRange(p.Mem(), lo, buf)
		}
		plist := make([]int32, (hi-lo)*stride)
		for i := lo; i < hi; i++ {
			for m := 0; m < k; m++ {
				plist[(i-lo)*stride+m] = nbfPartner(i, m, n, window)
			}
		}
		partners.WriteRange(p.Mem(), lo*stride, plist)
		p.ChargeUnits((hi-lo)*(k+6), InitCostPerElement)
	})

	// The force phase's work slices, span list and page table are fully
	// overwritten before they are read, every iteration, so they are
	// reused across iterations.
	var floats scratch[float64]
	var lists scratch[int32]
	var spans scratch[[]int32]
	var tables scratch[shmem.PageRef]
	for it := 0; it < cfg.Iters; it++ {
		// Force phase: irregular reads of partner positions.
		rt.For("nbf.force", 0, n, func(p *omp.Proc, lo, hi int) {
			cnt := hi - lo
			fx, fy, fz := floats.get(cnt), floats.get(cnt), floats.get(cnt)
			px, py, pz := floats.get(cnt), floats.get(cnt), floats.get(cnt)
			xs, ys, zs := floats.get(k), floats.get(k), floats.get(k)
			pos[0].ReadRange(p.Mem(), lo, hi, px)
			pos[1].ReadRange(p.Mem(), lo, hi, py)
			pos[2].ReadRange(p.Mem(), lo, hi, pz)
			// The partner lists are read in place: the loop ReadRange
			// would copy them with, its faults in the same order, keeps
			// the in-page views instead. They stay valid through the
			// gathers below, which fault position pages only (see
			// shmem.Reader3).
			pl := partnerLists{spans: spans.get(partners.Pages())[:0]}
			for e := lo * stride; e < hi*stride; {
				v := partners.ReadSpan(p.Mem(), e, hi*stride)
				pl.spans = append(pl.spans, v)
				e += len(v)
			}
			views, straddle := pl.spans, lists.get(stride)
			// Partner positions are irregular random reads, the dominant
			// cost of this kernel at full scale: each atom's partners are
			// gathered through a page table this body resolves once per
			// page (faulting exactly when per-element Gets would) and
			// summed by nbfSum (on amd64, two partners a register).
			table := tables.get(pos[0].Pages())
			pv := shmem.Readers3(p.Mem(), pos[0], pos[1], pos[2], table)
			for i := 0; i < cnt; i++ {
				pv.Gather3(pl.list(i*stride, k, straddle), xs, ys, zs)
				fx[i], fy[i], fz[i] = nbfSum(px[i], py[i], pz[i], xs, ys, zs)
			}
			frc[0].WriteRange(p.Mem(), lo, fx)
			frc[1].WriteRange(p.Mem(), lo, fy)
			frc[2].WriteRange(p.Mem(), lo, fz)
			p.ChargeUnits(cnt*k, cfg.PairCost)
			floats.put(fx, fy, fz, px, py, pz, xs, ys, zs)
			lists.put(straddle)
			clear(views) // page memory is not the scratch's to keep
			spans.put(views)
			tables.put(table)
		})

		// Integration phase: each process updates its own positions.
		rt.For("nbf.update", 0, n, func(p *omp.Proc, lo, hi int) {
			cnt := hi - lo
			for d := 0; d < 3; d++ {
				// Integrate in place, span by span: positions and forces
				// are both float64 arrays starting at region offset 0, so
				// their spans break at the same element boundaries.
				for i := lo; i < hi; {
					ps := pos[d].WriteSpan(p.Mem(), i, hi)
					fs := frc[d].ReadSpan(p.Mem(), i, i+len(ps))
					for q, f := range fs {
						ps[q] += nbfDT * f
					}
					i += len(ps)
				}
			}
			p.ChargeUnits(cnt, cfg.UpdateCost)
		})
	}

	// Timing and traffic are measured at the end of the computation;
	// the verification checksum below is outside the paper's window.
	res := measure(rt, "nbf", procs)
	mp := rt.MasterProc()
	sum := 0.0
	buf := make([]float64, n)
	for d := 0; d < 3; d++ {
		pos[d].ReadRange(mp.Mem(), 0, n, buf)
		for _, v := range buf {
			sum += v
		}
	}
	res.Checksum = sum
	return res, nil
}

// partnerLists walks one force body's partner lists where they lie:
// spans are the in-page views of the body's lists, back to back, the
// first starting at the body's first list.
type partnerLists struct {
	spans [][]int32
	base  int // the body-relative element spans[0] starts at
}

// list returns elements [e, e+k) of the body's lists, e counted from
// the body's first element and never below the previous call's: a view
// into one span or, for a list that straddles a page break, buf (at
// least k long) holding a copy.
func (l *partnerLists) list(e, k int, buf []int32) []int32 {
	for e >= l.base+len(l.spans[0]) {
		l.base += len(l.spans[0])
		l.spans = l.spans[1:]
	}
	v := l.spans[0][e-l.base:]
	if len(v) >= k {
		return v[:k]
	}
	buf = buf[:k]
	c := copy(buf, v)
	for _, v := range l.spans[1:] {
		if c == k {
			break
		}
		c += copy(buf[c:], v)
	}
	return buf
}

// NBFReference computes the checksum of the identical sequential run.
func NBFReference(cfg NBFConfig) float64 {
	n, k := cfg.Atoms, cfg.Partners
	window := cfg.window()
	pos := make([][]float64, 3)
	frc := make([][]float64, 3)
	for d := 0; d < 3; d++ {
		pos[d] = make([]float64, n)
		frc[d] = make([]float64, n)
		for i := 0; i < n; i++ {
			pos[d][i] = nbfInitPos(i, d)
		}
	}
	plist := make([]int32, n*k)
	for i := 0; i < n; i++ {
		for m := 0; m < k; m++ {
			plist[i*k+m] = nbfPartner(i, m, n, window)
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		for i := 0; i < n; i++ {
			var sx, sy, sz float64
			for m := 0; m < k; m++ {
				j := plist[i*k+m]
				dx, dy, dz := nbfForce(pos[0][i], pos[1][i], pos[2][i], pos[0][j], pos[1][j], pos[2][j])
				sx += dx
				sy += dy
				sz += dz
			}
			frc[0][i], frc[1][i], frc[2][i] = sx, sy, sz
		}
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				pos[d][i] += nbfDT * frc[d][i]
			}
		}
	}
	sum := 0.0
	for d := 0; d < 3; d++ {
		for _, v := range pos[d] {
			sum += v
		}
	}
	return sum
}
