package scenario

import (
	"flag"
	"fmt"
	"strconv"
)

// Flag binding: every cmd registers its scenario flags straight onto a
// Spec, replacing the per-cmd parse wiring that used to duplicate the
// machine/adapt/dsm Parse* calls. The spec's current field values are
// the flag defaults, so each cmd sets its historical defaults first
// and then binds. Validation happens once, in Normalize, when the
// flags have been parsed.

// BindKernel registers -app and -scale.
func (s *Spec) BindKernel(fs *flag.FlagSet) {
	fs.StringVar(&s.Kernel, "app", s.Kernel, "application: gauss, jacobi, fft3d, nbf, mergesort or quadrature")
	fs.Float64Var(&s.Scale, "scale", s.Scale, "problem scale (1.0 = the paper's sizes)")
}

// BindTeam registers -procs and -hosts.
func (s *Spec) BindTeam(fs *flag.FlagSet) {
	fs.IntVar(&s.Procs, "procs", s.Procs, "initial team size")
	fs.IntVar(&s.Hosts, "hosts", s.Hosts, "workstation pool size")
}

// BindAdapt registers -schedule, -grace and -policy.
func (s *Spec) BindAdapt(fs *flag.FlagSet) {
	fs.StringVar(&s.Schedule, "schedule", s.Schedule, "adapt events, e.g. \"6:leave:7,9:join:7\"")
	fs.Float64Var(&s.Grace, "grace", s.Grace, "default leave grace period in seconds")
	fs.StringVar(&s.Policy, "policy", s.Policy, "derive adapt events from the load traces, e.g. \"high=1.5,low=0.25,dwell=2\"")
}

// BindHetero registers -machines, -load and -links.
func (s *Spec) BindHetero(fs *flag.FlagSet) {
	fs.StringVar(&s.Machines, "machines", s.Machines, "per-machine CPU speeds, e.g. \"4=0.5,7=2\"")
	fs.StringVar(&s.Loads, "load", s.Loads, "per-machine load traces, e.g. \"3=2@5,0@15;6=0.5@0\"")
	fs.StringVar(&s.Links, "links", s.Links, "per-link overrides, e.g. \"0-7=lat:4,bw:0.25\"")
}

// BindProtocol registers -protocol.
func (s *Spec) BindProtocol(fs *flag.FlagSet) {
	fs.StringVar(&s.Protocol, "protocol", s.Protocol, "DSM coherence protocol: tmk (TreadMarks homeless LRC), hlrc (home-based LRC) or hybrid (adaptive per-page)")
}

// CheckPositive rejects -procs, -hosts, -scale or -grace set explicitly
// to zero or less. Normalize reads a zero in those fields as "use the
// default", so without this check an explicit -procs 0 would run the
// default team rather than fail. Call it once fs is parsed, before the
// spec is normalized; flags left at their defaults are not checked.
func CheckPositive(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "procs", "hosts", "scale", "grace":
		default:
			return
		}
		v, perr := strconv.ParseFloat(f.Value.String(), 64)
		if err == nil && (perr != nil || !(v > 0)) {
			err = fmt.Errorf("-%s %s: want a positive value", f.Name, f.Value)
		}
	})
	return err
}

// BindAll registers the full scenario flag surface.
func (s *Spec) BindAll(fs *flag.FlagSet) {
	s.BindKernel(fs)
	s.BindTeam(fs)
	s.BindAdapt(fs)
	s.BindHetero(fs)
	s.BindProtocol(fs)
}
