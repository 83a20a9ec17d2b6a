package scenario

import (
	"fmt"

	"nowomp/internal/omp"
	"nowomp/internal/page"
)

// workspaceKeep bounds the page buffers a workspace keeps between runs:
// 2,048 buffers, 8 MiB. A run that needed more lets the rest go.
const workspaceKeep = 2048

// Workspace is the memory one worker reuses across the runs it makes,
// one at a time: a freelist of page buffers that each run's cluster
// draws its page copies and twins from and hands back once the run's
// Result is assembled. Only memory crosses runs, never simulated state:
// every buffer the freelist hands out is fully overwritten or cleared
// (page.Freelist), so a run in a workspace that ran other specs encodes
// the same bytes as the same spec run fresh. A farm worker keeps one for
// its lifetime. The zero value is ready to use; a Workspace has a single
// owner and must not be shared between goroutines.
type Workspace struct {
	pages *page.Freelist
}

// Run executes the scenario end to end: Execute with the run's cluster
// drawing its page buffers from the workspace, the Result assembled
// around the spec's content address, then every page and twin buffer
// handed back. A nil workspace is Spec.Run: the cluster allocates its
// own buffers and nothing is handed back.
//
// A panic out of Run leaves the workspace unusable (a buffer may be on
// the list and still referenced); RunChecked recovers it and starts the
// workspace afresh.
func (w *Workspace) Run(s Spec) (Result, error) {
	var mod func(*omp.Config)
	if w != nil {
		if w.pages == nil {
			w.pages = new(page.Freelist)
		}
		mod = func(cfg *omp.Config) { cfg.Pages = w.pages }
	}
	norm, res, rt, _, err := s.Execute(mod, nil)
	if err != nil {
		return Result{}, err
	}
	data, err := norm.encode()
	if err != nil {
		return Result{}, err
	}
	adaptations := 0
	for _, ap := range rt.AdaptLog() {
		adaptations += len(ap.Applied)
	}
	out := Result{
		Scenario:    fmt.Sprintf("farm/%s/%dp", norm.Kernel, norm.Procs),
		Seconds:     float64(res.Time),
		Bytes:       res.Bytes,
		Messages:    res.Messages,
		Hash:        hashOf(data),
		Spec:        norm,
		Pages:       res.Pages,
		Diffs:       res.Diffs,
		SharedBytes: res.SharedBytes,
		Checksum:    res.Checksum,
		Verified:    norm.Verify,
		TeamFinal:   rt.NProcs(),
		Adaptations: adaptations,
	}
	if w != nil {
		// Nothing reads the runtime after this: the Result is a value.
		rt.Cluster().Recycle()
		w.pages.Trim(workspaceKeep)
	}
	return out, nil
}

// RunChecked is Run behind a panic barrier (see Spec.RunChecked). A
// recovered panic also drops the workspace's buffers: the run that
// panicked can leave one both on the list and still referenced by its
// abandoned cluster, so the next run starts from an empty freelist.
func (w *Workspace) RunChecked(s Spec) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if w != nil {
				w.pages = nil
			}
			err = fmt.Errorf("scenario: run panicked: %v", v)
		}
	}()
	return w.Run(s)
}
