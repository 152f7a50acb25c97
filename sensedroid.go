// Package sensedroid is the public façade of the SenseDroid reproduction:
// a hierarchical, collaborative, compressive mobile crowdsensing
// middleware (Sarma, Venkatasubramanian, Dutt — DAC 2014).
//
// The implementation lives in internal/ packages; this package re-exports
// the surface a downstream user needs:
//
//   - Deploy a hierarchy (public cloud → local clouds → NanoCloud brokers
//     → mobile nodes) with New.
//   - Point it at a ground-truth field with (*Middleware).SetTruth — in a
//     real deployment the physical world plays this role.
//   - Run collaborative compressive sensing campaigns with RunCampaign,
//     choosing uniform or sparsity/criticality-adaptive per-zone budgets.
//   - Run on-device context sensing (activity, IsIndoor, stress) per node
//     with (*node.Node).SenseContext and fuse the group view with
//     contextproc.FuseGroup.
//
// See examples/ for runnable scenarios and DESIGN.md for the system map.
package sensedroid

import (
	"repro/internal/core"
	"repro/internal/field"
)

// Re-exported aliases: the middleware API surface.
type (
	// Options sizes a deployment (field grid, zones, NanoClouds, nodes).
	Options = core.Options
	// Middleware is a deployed SenseDroid instance.
	Middleware = core.SenseDroid
	// CampaignConfig parameterizes one collaborative sensing campaign.
	CampaignConfig = core.CampaignConfig
	// CampaignResult reports a completed campaign.
	CampaignResult = core.CampaignResult
	// Field is a discretized 2-D spatial map (column-stacked, Eq. 1).
	Field = field.Field
	// Plume is one Gaussian hotspot in a synthetic field.
	Plume = field.Plume
	// Zone is one rectangular region of the hierarchy.
	Zone = field.Zone
)

// New builds the full middleware hierarchy.
func New(opts Options) (*Middleware, error) { return core.New(opts) }

// NewField returns a zero field of width w and height h.
func NewField(w, h int) *Field { return field.New(w, h) }

// GenPlumes synthesizes a plume field (disaster-response style workload).
func GenPlumes(w, h int, ambient float64, plumes []Plume) *Field {
	return field.GenPlumes(w, h, ambient, plumes)
}
