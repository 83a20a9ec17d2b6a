// Package scenario defines the canonical simulation-scenario
// specification shared by every tool and by the farm service: one
// struct that names a kernel, a problem scale, a team, a protocol, the
// heterogeneity model (machine speeds, load traces, link overrides),
// an adapt schedule and/or load policy, and whether to verify against
// the sequential reference.
//
// A Spec has a canonical form (Normalize): every compact sub-spec
// string is parsed and re-formatted through its package's
// Parse*/Format* pair, defaults are made explicit, and the result
// round-trips bit-for-bit. Canonical encodes the normalized spec as
// deterministic JSON (fixed field order, shortest float form, every
// field present), and Hash is the SHA-256 of those bytes — the
// content-address of the scenario. Because PR 5's engine made every
// scenario outcome a pure function of its spec, two specs with the
// same hash produce byte-identical results at any parallelism level,
// which is what makes the farm's result cache sound.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"nowomp/internal/adapt"
	"nowomp/internal/apps"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Spec is the complete description of one simulation scenario. The
// string fields reuse the tools' compact flag formats (see the
// machine and adapt packages); zero values mean "default" and are made
// explicit by Normalize. The JSON form of a normalized Spec is the
// canonical scenario encoding the farm hashes.
type Spec struct {
	// Kernel names the application: gauss, jacobi, fft3d, nbf,
	// mergesort or quadrature.
	Kernel string `json:"kernel"`
	// Scale is the linear problem scale (1.0 = the paper's sizes).
	Scale float64 `json:"scale"`
	// Procs is the initial team size, Hosts the workstation pool.
	Procs int `json:"procs"`
	Hosts int `json:"hosts"`
	// Adaptive enables adapt-event processing; a schedule or policy
	// requires it.
	Adaptive bool `json:"adaptive"`
	// Grace is the default leave grace period in virtual seconds
	// (0 = the paper's 3 s, made explicit by Normalize).
	Grace float64 `json:"grace"`
	// Protocol is the DSM coherence protocol: "tmk", "hlrc" or
	// "hybrid".
	Protocol string `json:"protocol"`
	// Machines / Loads / Links are the heterogeneity sub-specs in
	// machine.ParseSpeeds / ParseLoads / ParseLinks form.
	Machines string `json:"machines"`
	Loads    string `json:"loads"`
	Links    string `json:"links"`
	// Policy derives adapt events from the load traces
	// (adapt.ParsePolicy form); it requires Loads and Adaptive.
	Policy string `json:"policy"`
	// Schedule is a hand-written adapt-event schedule
	// (adapt.ParseSchedule form); it requires Adaptive.
	Schedule string `json:"schedule"`
	// Verify checks the result against the sequential reference.
	Verify bool `json:"verify"`
}

// Defaults mirror the tools' historical flag defaults.
const (
	DefaultProcs = 8
	DefaultHosts = 10
	DefaultScale = 0.2
)

// MaxHosts caps the workstation pool a single scenario may request.
// The fabric keeps per-link state (O(hosts²)) and the paper's NOW is a
// few dozen workstations, so an absurd pool size is a malformed
// request, not a bigger simulation — important for the farm (an
// unauthenticated POST must not allocate unbounded state) and for the
// fuzzer (every accepted spec must be cheap enough to run).
const MaxHosts = 64

// Normalize validates the spec and returns its canonical form:
// defaults explicit, every sub-spec string re-formatted through its
// Parse/Format round trip (so field order and whitespace inside the
// compact formats cannot change the hash). Normalize is idempotent —
// normalizing a normalized spec is the identity.
func (s Spec) Normalize() (Spec, error) {
	p, err := s.parse()
	return p.norm, err
}

// parsed is a spec in canonical form together with what its sub-spec
// strings built on the way there, so the road from a spec to a runtime
// (Start) parses each of them once: the omp.Config (its machine model
// nil for a homogeneous pool; its link configurer applying the
// canonical string, validated here, to the runtime's own fabric), the
// schedule's events, and the policy when norm.Policy is not empty.
type parsed struct {
	norm   Spec
	cfg    omp.Config
	events []adapt.Event
	policy adapt.LoadPolicy
}

// parse is Normalize keeping what it parsed.
func (s Spec) parse() (parsed, error) {
	if s.Kernel == "" {
		s.Kernel = "jacobi"
	}
	if _, ok := apps.RunnerByName(s.Kernel); !ok {
		return parsed{}, fmt.Errorf("scenario: unknown kernel %q", s.Kernel)
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	if !(s.Scale > 0 && s.Scale <= 4) { // NaN fails both comparisons
		return parsed{}, fmt.Errorf("scenario: scale %g out of range (0, 4]", s.Scale)
	}
	if s.Procs == 0 {
		s.Procs = DefaultProcs
	}
	if s.Hosts == 0 {
		s.Hosts = DefaultHosts
	}
	if s.Procs < 1 {
		return parsed{}, fmt.Errorf("scenario: procs %d must be at least 1", s.Procs)
	}
	if s.Hosts < s.Procs {
		return parsed{}, fmt.Errorf("scenario: hosts %d must cover the team of %d", s.Hosts, s.Procs)
	}
	if s.Hosts > MaxHosts {
		return parsed{}, fmt.Errorf("scenario: hosts %d exceeds the pool cap %d", s.Hosts, MaxHosts)
	}
	if s.Grace == 0 {
		s.Grace = float64(adapt.DefaultGrace)
	}
	if !(s.Grace >= 0) || math.IsInf(s.Grace, 0) { // NaN fails the comparison
		return parsed{}, fmt.Errorf("scenario: grace %g must be a non-negative finite number", s.Grace)
	}
	var p parsed
	var err error
	if p.cfg.Protocol, err = dsm.ParseProtocol(s.Protocol); err != nil {
		return parsed{}, err
	}
	s.Protocol = p.cfg.Protocol.String()

	// Round-trip the heterogeneity sub-specs through one model so the
	// canonical strings are exactly what Format* emits.
	if s.Machines != "" || s.Loads != "" {
		m := machine.New(s.Hosts)
		if err := machine.ParseSpeeds(m, s.Machines); err != nil {
			return parsed{}, err
		}
		if err := machine.ParseLoads(m, s.Loads); err != nil {
			return parsed{}, err
		}
		s.Machines = machine.FormatSpeeds(m)
		s.Loads = machine.FormatLoads(m)
		if s.Machines != "" || s.Loads != "" {
			p.cfg.Machine = m
		}
	}
	if s.Links != "" {
		f := simnet.New(s.Hosts)
		if err := machine.ParseLinks(f, s.Links); err != nil {
			return parsed{}, err
		}
		if s.Links = machine.FormatLinks(f); s.Links != "" {
			links := s.Links
			p.cfg.Links = func(f *simnet.Fabric) error { return machine.ParseLinks(f, links) }
		}
	}
	if s.Policy != "" {
		if p.policy, err = adapt.ParsePolicy(s.Policy); err != nil {
			return parsed{}, err
		}
		if !s.Adaptive {
			return parsed{}, fmt.Errorf("scenario: a policy requires adaptive")
		}
		if s.Loads == "" {
			return parsed{}, fmt.Errorf("scenario: a policy needs load traces to watch")
		}
		s.Policy = adapt.FormatPolicy(p.policy)
	}
	if s.Schedule != "" {
		if p.events, err = adapt.ParseSchedule(s.Schedule); err != nil {
			return parsed{}, err
		}
		if !s.Adaptive {
			return parsed{}, fmt.Errorf("scenario: a schedule requires adaptive")
		}
		// Validate every event against this scenario's pool: the adapt
		// manager trusts event hosts (a join of a host outside the pool
		// would panic mid-run), so the spec layer is where a bad host id
		// must be rejected with a stable error.
		for _, ev := range p.events {
			if int(ev.Host) >= s.Hosts {
				return parsed{}, fmt.Errorf("scenario: schedule event host %d not in pool [0,%d)", ev.Host, s.Hosts)
			}
			if ev.Kind == adapt.KindLeave && ev.Host == 0 {
				return parsed{}, fmt.Errorf("scenario: schedule cannot leave host 0 (the master)")
			}
		}
		s.Schedule = adapt.FormatSchedule(p.events)
	}
	p.cfg.Hosts, p.cfg.Procs = s.Hosts, s.Procs
	p.cfg.Adaptive, p.cfg.Grace = s.Adaptive, simtime.Seconds(s.Grace)
	p.norm = s
	return p, nil
}

// Canonical returns the deterministic JSON encoding of the spec's
// canonical form: fixed field order, shortest float representation,
// every field present. Two requests that differ only in JSON field
// order, whitespace, or sub-spec item order encode identically.
func (s Spec) Canonical() ([]byte, error) {
	norm, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return norm.encode()
}

// encode marshals a spec that is already in canonical form.
func (s Spec) encode() ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode: %w", err)
	}
	return data, nil
}

// Hash is the scenario's content address: the hex SHA-256 of its
// canonical encoding. Identical hash means identical simulation
// results, byte for byte — the determinism contract the engine
// enforces and the farm's result cache relies on.
func (s Spec) Hash() (string, error) {
	data, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return hashOf(data), nil
}

func hashOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Decode parses a JSON scenario spec. Unknown fields are rejected so a
// typoed field name fails loudly instead of silently meaning "default"
// (and hashing as a different scenario than the client intended), and so
// is anything but whitespace after the object: a body holding two specs
// is not a request for the first.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: decode: data after the spec object")
	}
	return s, nil
}
