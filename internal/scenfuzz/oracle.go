package scenfuzz

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"

	"nowomp/internal/scenario"
)

// Oracle names, in the order Check applies them. The shrinker treats
// the oracle name as the failure's identity: a candidate reproduces a
// failure only if the same oracle rejects it.
const (
	OraclePanic         = "panic"          // the run panicked (word race, deadlock, invariant)
	OracleRun           = "run-error"      // a valid spec failed to build or run
	OracleDeterminism   = "determinism"    // Result bytes differ across GOMAXPROCS or reruns
	OracleReference     = "reference"      // checksum differs from the sequential reference
	OracleCrossProtocol = "cross-protocol" // Tmk, HLRC and hybrid disagree on program output
	OracleWarm          = "warm"           // a run in a reused workspace differs from the fresh run
	OracleTransparency  = "transparency"   // adaptive run disagrees with non-adaptive output
)

// Verdict is one spec's oracle outcome. Oracle is empty when every
// oracle passed.
type Verdict struct {
	Spec   scenario.Spec // normalized
	Hash   string
	Oracle string
	Detail string
}

// Failed reports whether any oracle rejected the spec.
func (v Verdict) Failed() bool { return v.Oracle != "" }

// gomaxprocsLevels are the parallelism levels the determinism oracle
// sweeps, mirroring the CI fingerprint gate's -cpu 1,4,16.
var gomaxprocsLevels = []int{1, 4, 16}

// runEncoded runs the spec behind the panic barrier, in ws (nil for a
// fresh run), and returns the Result with its canonical encoding — the
// bytes the determinism and warm oracles compare and the farm would
// serve.
func runEncoded(ws *scenario.Workspace, s scenario.Spec) (scenario.Result, []byte, error) {
	res, err := ws.RunChecked(s)
	if err != nil {
		return scenario.Result{}, nil, err
	}
	data, err := res.Encode()
	if err != nil {
		return scenario.Result{}, nil, err
	}
	return res, data, nil
}

// failure classifies a run error: recovered panics get the panic
// oracle, everything else the run oracle.
func failure(v *Verdict, err error) {
	v.Oracle = OracleRun
	if strings.Contains(err.Error(), "panicked") {
		v.Oracle = OraclePanic
	}
	v.Detail = err.Error()
}

// sameBits is bit-exact float equality: the transparency claim is that
// program output is identical, not approximately equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Check runs one spec under the full differential-oracle battery:
// determinism across GOMAXPROCS and reruns, checksum versus the
// sequential reference, cross-protocol output equivalence, warm equals
// cold, and — for adaptive specs — transparency against the
// non-adaptive run. It normalizes the spec first and reports a
// run-error verdict if the spec is invalid (the generator never
// produces one; arbitrary fuzz inputs are filtered by the caller).
func Check(spec scenario.Spec) Verdict {
	v := Verdict{Spec: spec}
	norm, err := spec.Normalize()
	if err != nil {
		v.Oracle = OracleRun
		v.Detail = "spec does not normalize: " + err.Error()
		return v
	}
	v.Spec = norm
	if v.Hash, err = norm.Hash(); err != nil {
		v.Oracle = OracleRun
		v.Detail = err.Error()
		return v
	}

	base, baseBytes, err := runEncoded(nil, norm)
	if err != nil {
		failure(&v, err)
		return v
	}

	// Determinism: identical spec, identical bytes, whatever the host
	// scheduler's parallelism. The sweep doubles as the rerun check.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range gomaxprocsLevels {
		runtime.GOMAXPROCS(gmp)
		_, again, err := runEncoded(nil, norm)
		if err != nil {
			failure(&v, fmt.Errorf("rerun at GOMAXPROCS=%d: %w", gmp, err))
			return v
		}
		if !bytes.Equal(baseBytes, again) {
			v.Oracle = OracleDeterminism
			v.Detail = fmt.Sprintf("Result bytes diverge at GOMAXPROCS=%d (base at %d)", gmp, prev)
			return v
		}
	}
	runtime.GOMAXPROCS(prev)

	// Reference: the parallel checksum is the sequential checksum.
	runner, err := norm.Runner()
	if err != nil {
		failure(&v, err)
		return v
	}
	if ref := runner.Reference(norm.Scale); !sameBits(base.Checksum, ref) {
		v.Oracle = OracleReference
		v.Detail = fmt.Sprintf("checksum %v, sequential reference %v", base.Checksum, ref)
		return v
	}

	// Cross-protocol: the coherence protocol is an implementation
	// detail — traffic and virtual times may differ, program output may
	// not. The equivalence is three-way: whatever protocol the spec
	// names, both counterparts must reproduce its checksum bit for bit.
	// The counterparts run in one workspace, which the warm oracle
	// reuses.
	var ws scenario.Workspace
	for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
		if proto == norm.Protocol {
			continue
		}
		other := norm
		other.Protocol = proto
		otherRes, _, err := runEncoded(&ws, other)
		if err != nil {
			failure(&v, fmt.Errorf("%s counterpart: %w", other.Protocol, err))
			return v
		}
		if !sameBits(base.Checksum, otherRes.Checksum) {
			v.Oracle = OracleCrossProtocol
			v.Detail = fmt.Sprintf("%s checksum %v, %s checksum %v",
				norm.Protocol, base.Checksum, other.Protocol, otherRes.Checksum)
			return v
		}
	}

	// Warm equals cold: run in the workspace its two counterparts used,
	// the spec must encode the bytes of its fresh run — traffic,
	// messages and times, not only the checksum. Only memory crosses
	// runs, never simulated state.
	_, warm, err := runEncoded(&ws, norm)
	if err != nil {
		failure(&v, fmt.Errorf("warm run: %w", err))
		return v
	}
	if !bytes.Equal(baseBytes, warm) {
		v.Oracle = OracleWarm
		v.Detail = "Result bytes of a run in a reused workspace differ from the fresh run's"
		return v
	}

	// Transparency: team churn must not show in the program's output.
	if norm.Adaptive {
		steady := norm
		steady.Adaptive = false
		steady.Schedule = ""
		steady.Policy = ""
		steadyRes, _, err := runEncoded(nil, steady)
		if err != nil {
			failure(&v, fmt.Errorf("non-adaptive counterpart: %w", err))
			return v
		}
		if !sameBits(base.Checksum, steadyRes.Checksum) {
			v.Oracle = OracleTransparency
			v.Detail = fmt.Sprintf("adaptive checksum %v, non-adaptive checksum %v",
				base.Checksum, steadyRes.Checksum)
			return v
		}
	}
	return v
}
