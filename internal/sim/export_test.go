package sim

import "deep/internal/units"

// ActRows exposes the plan's per-(microservice, device) draws above idle to
// the external equivalence tests.
func (p *Plan) ActRows() (pullW, recvW, procW []units.Watts) {
	return p.actPullW, p.actRecvW, p.actProcW
}
