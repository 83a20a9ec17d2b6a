package page

import (
	"math/rand"
	"testing"
)

// Scan is assembly on amd64; scanGo, which shares no code with it, is
// the oracle. Both run on every case, at every byte alignment of both
// pages within a 16-byte vector, so a test failing here on amd64 names
// the assembly and one failing elsewhere names the forwarder.

// scanCase is one page pair as a list of byte edits to a copy of the
// twin: cur[pos[i]] ^= xor[i].
type scanCase struct {
	name string
	pos  []int
	xor  []byte
}

func scanCases() []scanCase {
	cases := []scanCase{{name: "identical"}}
	add := func(name string, pos []int, xor byte) {
		x := make([]byte, len(pos))
		for i := range x {
			x[i] = xor
		}
		cases = append(cases, scanCase{name, pos, x})
	}
	var all, perWord, lanes []int
	for b := 0; b < Size; b++ {
		all = append(all, b)
	}
	add("all different", all, 0xFF)
	// One byte per word, a different one in each: a compare that looks
	// at one half of the word only misses half of these.
	for w := 0; w < Words; w++ {
		perWord = append(perWord, w*WordBytes+w%WordBytes)
	}
	add("single byte per word", perWord, 0x10)
	// One bit in one word, walking every bit of a word, every word of
	// a 64-byte group and every lane, and the page's first and last
	// word.
	for bit := 0; bit < 64; bit++ {
		w := bit * 9 % Words
		add("single bit", []int{w*WordBytes + bit/8}, 1<<(bit%8))
	}
	add("first word", []int{0}, 1)
	add("last word", []int{Size - 1}, 0x80)
	// Either side of every mask-lane boundary, and of every group
	// boundary inside a lane.
	for w := 7; w < Words; w += 8 {
		lanes = append(lanes, w*WordBytes, ((w+1)%Words)*WordBytes+7)
	}
	add("group and lane boundaries", lanes, 0x01)
	for l := 0; l < Words/64; l++ {
		add("lane boundary", []int{(l*64+63)*WordBytes + 4, ((l*64+64)%Words)*WordBytes + 3}, 0x40)
	}
	return cases
}

func checkScan(t testing.TB, tw, cur []byte) {
	t.Helper()
	if got, want := Scan(tw, cur), scanGo(tw, cur); got != want {
		t.Fatalf("Scan = %016x, scanGo = %016x", got, want)
	}
}

// placed returns a page-sized window off bytes into a fresh buffer.
func placed(off int) []byte { return make([]byte, Size+16)[off : off+Size : off+Size] }

func TestScanMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(2020))
	for _, sc := range scanCases() {
		for off := 0; off < 16; off++ {
			tw, cur := placed(off), placed((off*7+3)%16)
			r.Read(tw)
			copy(cur, tw)
			for i, p := range sc.pos {
				cur[p] ^= sc.xor[i]
			}
			checkScan(t, tw, cur)
			checkScan(t, cur, tw) // symmetric
			if t.Failed() {
				t.Fatalf("case %q, offset %d", sc.name, off)
			}
		}
	}
	// Random masks: every word changed with a probability that sweeps
	// from sparse to dense, in one random byte of the word.
	for round := 0; round < 400; round++ {
		tw, cur := placed(round%16), placed(round/16%16)
		r.Read(tw)
		copy(cur, tw)
		for w := 0; w < Words; w++ {
			if r.Intn(400) < round {
				cur[w*WordBytes+r.Intn(WordBytes)] ^= byte(1 + r.Intn(255))
			}
		}
		checkScan(t, tw, cur)
	}
}

// FuzzScan: the fuzzer chooses both pages' contents (repeated to a
// page) and their alignments.
func FuzzScan(f *testing.F) {
	for _, sc := range scanCases() {
		var edits []byte
		for i, p := range sc.pos {
			if len(edits) > 64 {
				break
			}
			edits = append(edits, byte(p>>8), byte(p), sc.xor[i])
		}
		f.Add([]byte(sc.name), edits, uint8(len(edits)))
	}
	f.Fuzz(func(t *testing.T, seed, edits []byte, align uint8) {
		tw, cur := placed(int(align&15)), placed(int(align>>4))
		for i := range tw {
			if len(seed) > 0 {
				tw[i] = seed[i%len(seed)] + byte(i>>8)
			}
		}
		copy(cur, tw)
		for i := 0; i+2 < len(edits); i += 3 {
			cur[(int(edits[i])<<8|int(edits[i+1]))%Size] ^= edits[i+2]
		}
		checkScan(t, tw, cur)
	})
}

// BenchmarkPageScanDense, Sparse and Clean time the twin-against-page
// scan every interval close runs, the platform's implementation beside
// the Go loop it is held to, with every word, one word per mask lane
// and no word modified. "hot" rescans one L1-resident pair; "cold"
// walks 4096 pairs (32 MB, past the last-level cache), which is nearer
// what a barrier over a large region sees.
func BenchmarkPageScanDense(b *testing.B)  { benchPageScan(b, 1) }
func BenchmarkPageScanSparse(b *testing.B) { benchPageScan(b, 64) }
func BenchmarkPageScanClean(b *testing.B)  { benchPageScan(b, Words) }

func benchPageScan(b *testing.B, step int) {
	for _, k := range []struct {
		name string
		f    func(twin, current []byte) Mask
	}{{"impl", Scan}, {"go", scanGo}} {
		for _, ws := range []struct {
			name  string
			pairs int
		}{{"hot", 1}, {"cold", 4096}} {
			b.Run(k.name+"/"+ws.name, func(b *testing.B) {
				buf := make([]byte, 2*Size*ws.pairs)
				for i := range buf {
					buf[i] = byte(i * 131 >> 3)
				}
				pair := func(p int) (tw, cur []byte) {
					return buf[2*p*Size:][:Size], buf[(2*p+1)*Size:][:Size]
				}
				for p := 0; p < ws.pairs; p++ {
					tw, cur := pair(p)
					copy(cur, tw)
					for w := 0; w < Words; w += step {
						cur[w*WordBytes] ^= 1
					}
				}
				b.SetBytes(Size)
				p := 0
				for b.Loop() {
					sinkMask = k.f(pair(p))
					if p++; p == ws.pairs {
						p = 0
					}
				}
			})
		}
	}
}
