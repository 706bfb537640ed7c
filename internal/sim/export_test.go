package sim

import "deep/internal/units"

// ActRows expands the plan's class rows into the per-(microservice, device)
// draws above idle the executor takes at read, indexed ms*NumDevices()+dev,
// for the external equivalence tests.
func (p *Plan) ActRows() (pullW, recvW, procW []units.Watts) {
	nm, nd := len(p.msNames), len(p.devNames)
	pullW, recvW, procW = make([]units.Watts, nm*nd), make([]units.Watts, nm*nd), make([]units.Watts, nm*nd)
	for i := int32(0); int(i) < nm; i++ {
		for d := int32(0); int(d) < nd; d++ {
			k, idle := p.cell(i, d), p.idleW[d]
			pullW[int(i)*nd+int(d)] = p.pullW[k] - idle
			recvW[int(i)*nd+int(d)] = p.recvW[k] - idle
			procW[int(i)*nd+int(d)] = p.procW[k] - idle
		}
	}
	return pullW, recvW, procW
}
