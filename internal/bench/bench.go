// Package bench provides the benchmark workloads of the paper's evaluation:
// PISA kernels for CRC32, FFT, ADPCM, bitcount, blowfish, JPEG (DCT) and
// dijkstra, each in an -O0 and an -O3 code shape.
//
// The paper compiled the MiBench programs with gcc 2.7.2.3 for PISA; that
// toolchain is not reproducible here, so each kernel is hand-written PISA
// assembly with the authentic dataflow of the original inner loop. The -O3
// variants reproduce the structural effect the paper attributes to gcc -O3 —
// unrolled loops and inlined helpers yielding larger basic blocks with more
// instruction-level parallelism — while -O0 keeps one small straight-line
// loop body. Every kernel carries a Go reference model and a Check function
// so the test suite proves the assembly computes the real thing.
package bench

import (
	"fmt"
	"sync"

	"repro/internal/dfg"
	"repro/internal/prog"
	"repro/internal/vm"
)

// MemSize is the VM memory size every benchmark runs with.
const MemSize = 1 << 16

// MaxSteps bounds the dynamic instruction count of one benchmark run.
const MaxSteps = 5_000_000

// Benchmark is one runnable workload: a program plus its input state and
// result verification. Get hands out one shared Benchmark per (name, opt),
// so a Benchmark is immutable: callers read its fields and its profile and
// DFGs and never write them.
type Benchmark struct {
	Name string // e.g. "crc32"
	Opt  string // "O0" or "O3"
	Prog *prog.Program

	// Setup initializes machine memory and registers before Run.
	Setup func(m *vm.Machine) error
	// Check verifies the machine state after Run against the Go reference
	// model, returning a descriptive error on mismatch.
	Check func(m *vm.Machine) error

	// prof is Run's profile, computed once by Profile; profErr its error.
	profOnce sync.Once
	prof     *vm.Profile
	profErr  error
	// dfgs are the executed blocks' DFGs in ascending block order, built
	// once by DFGs; byBlock indexes them by block (nil: never executed).
	dfgOnce sync.Once
	dfgs    []*dfg.DFG
	byBlock []*dfg.DFG
}

// FullName returns "name/opt", e.g. "crc32/O3".
func (b *Benchmark) FullName() string { return b.Name + "/" + b.Opt }

// Run executes the benchmark on a fresh machine and returns its profile.
// The result is verified with Check before returning.
func (b *Benchmark) Run() (*vm.Profile, error) {
	m := vm.NewMachine(MemSize)
	if err := b.Setup(m); err != nil {
		return nil, fmt.Errorf("bench %s: setup: %w", b.FullName(), err)
	}
	prof, err := m.Run(b.Prog, MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.FullName(), err)
	}
	if err := b.Check(m); err != nil {
		return nil, fmt.Errorf("bench %s: verification: %w", b.FullName(), err)
	}
	return prof, nil
}

// Profile returns the benchmark's profile: Run's result, computed on the
// first call and shared by every later one (and by every caller of Get). A
// profile is a pure function of (benchmark, opt level), so sharing it only
// removes recomputation. Callers must not modify it.
func (b *Benchmark) Profile() (*vm.Profile, error) {
	b.profOnce.Do(func() { b.prof, b.profErr = b.Run() })
	return b.prof, b.profErr
}

// DFGs returns the DFG of every executed block in ascending block order,
// weighted by the shared profile. They are built on the first call and
// shared: a DFG is immutable after dfg.Build and its lazy closure and
// fingerprint are published through sync.Once, so concurrent readers are
// safe. Callers must not modify the slice or the DFGs.
func (b *Benchmark) DFGs() ([]*dfg.DFG, error) {
	prof, err := b.Profile()
	if err != nil {
		return nil, err
	}
	b.dfgOnce.Do(func() {
		var executed []int
		for bi, c := range prof.BlockCounts {
			if c > 0 {
				executed = append(executed, bi)
			}
		}
		b.dfgs = dfg.BuildAll(b.Prog, executed, prof.BlockCounts)
		b.byBlock = make([]*dfg.DFG, len(b.Prog.Blocks))
		for _, d := range b.dfgs {
			b.byBlock[d.BlockIndex] = d
		}
	})
	return b.dfgs, nil
}

// HotDFGs returns the shared DFGs of the n hottest blocks (vm.Profile's
// HotBlocks), hottest first.
func (b *Benchmark) HotDFGs(n int) ([]*dfg.DFG, error) {
	if _, err := b.DFGs(); err != nil {
		return nil, err
	}
	hot := b.prof.HotBlocks(b.Prog, n)
	out := make([]*dfg.DFG, len(hot))
	for i, bi := range hot {
		out[i] = b.byBlock[bi]
	}
	return out, nil
}

// Names returns the paper's seven benchmark names in its order; the
// evaluation matrix (internal/experiments) runs exactly these.
func Names() []string {
	return []string{"crc32", "fft", "adpcm", "bitcount", "blowfish", "jpeg", "dijkstra"}
}

// Extended returns every available benchmark: the paper's seven plus the
// extension kernels (sha, stringsearch) added by this reproduction.
func Extended() []string {
	return append(Names(), "sha", "stringsearch", "rijndael")
}

// Opts returns the two compiler optimization shapes.
func Opts() []string { return []string{"O0", "O3"} }

var registry = map[string]func(opt string) *Benchmark{
	"crc32":    newCRC32,
	"fft":      newFFT,
	"adpcm":    newADPCM,
	"bitcount": newBitcount,
	"blowfish": newBlowfish,
	"jpeg":     newJPEG,
	"dijkstra": newDijkstra,
	// Extensions beyond the paper's benchmark set.
	"sha":          newSHA,
	"stringsearch": newStringsearch,
	"rijndael":     newRijndael,
}

// shared holds the one Benchmark per (name, opt) that Get hands out;
// guarded by sharedMu.
var (
	sharedMu sync.Mutex
	shared   = map[[2]string]*Benchmark{}
)

// Get returns the benchmark with the given name and optimization level. The
// program is built on the first call, and every call for the same (name,
// opt) returns the same *Benchmark, so its profile and DFGs (Profile, DFGs)
// are computed once per process whichever caller asks first.
func Get(name, opt string) (*Benchmark, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	if opt != "O0" && opt != "O3" {
		return nil, fmt.Errorf("bench: unknown optimization level %q", opt)
	}
	key := [2]string{name, opt}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	b, ok := shared[key]
	if !ok {
		b = mk(opt)
		shared[key] = b
	}
	return b, nil
}

// All returns every benchmark (including extensions) at every optimization
// level, ordered as listed by Extended.
func All() []*Benchmark {
	var out []*Benchmark
	for _, n := range Extended() {
		for _, o := range Opts() {
			b, err := Get(n, o)
			if err != nil {
				panic(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// rng is a tiny deterministic xorshift generator used to build benchmark
// input data; math/rand would also do, but a frozen in-package generator
// guarantees the input bytes can never drift between Go releases.
type rng uint32

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

// bytesOf returns n pseudo-random bytes from seed.
func bytesOf(seed uint32, n int) []byte {
	r := rng(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.next())
	}
	return out
}

// wordsOf returns n pseudo-random 32-bit words from seed.
func wordsOf(seed uint32, n int) []uint32 {
	r := rng(seed)
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

// storeWords writes ws at consecutive word addresses starting at base.
func storeWords(m *vm.Machine, base uint32, ws []uint32) error {
	for i, w := range ws {
		if err := m.StoreWord(base+uint32(4*i), w); err != nil {
			return err
		}
	}
	return nil
}

// loadWords reads n consecutive words starting at base.
func loadWords(m *vm.Machine, base uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		w, err := m.LoadWord(base + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
