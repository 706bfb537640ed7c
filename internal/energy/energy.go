// Package energy models the power draw of edge devices, replacing the
// paper's pyRAPL (Intel RAPL counters) and Ketotek wall-socket power meter
// with power models over virtual time. Energy is always the integral of
// power over (virtual) time (units.Watts.Over).
package energy

import "deep/internal/units"

// State describes what a device is doing, which determines its power draw.
type State string

// Device activity states.
const (
	Idle       State = "idle"       // background tasks only (static power)
	Pulling    State = "pulling"    // downloading an image (network + disk)
	Receiving  State = "receiving"  // receiving an input dataflow
	Processing State = "processing" // executing a microservice
)

// PowerModel yields the instantaneous power a device draws in a given state
// while running a given microservice ("" when none).
type PowerModel interface {
	Power(state State, microservice string) units.Watts
}

// LinearModel is a simple affine power model: static power plus a per-state
// increment. It ignores which microservice runs.
type LinearModel struct {
	StaticW     units.Watts // E_s: keeping the device on
	PullW       units.Watts // increment while pulling images
	ReceiveW    units.Watts // increment while receiving dataflows
	ProcessingW units.Watts // increment while executing
}

// Power implements PowerModel.
func (m LinearModel) Power(state State, _ string) units.Watts {
	switch state {
	case Pulling:
		return m.StaticW + m.PullW
	case Receiving:
		return m.StaticW + m.ReceiveW
	case Processing:
		return m.StaticW + m.ProcessingW
	default:
		return m.StaticW
	}
}

// TableModel draws per-(microservice, state) power calibrated from
// benchmarks — the Table II route the paper takes. Unknown microservices
// fall back to a LinearModel.
type TableModel struct {
	Fallback LinearModel
	// ProcessW maps microservice name to its measured processing power.
	ProcessW map[string]units.Watts
	// TransferW maps microservice name to its power while its image or
	// dataflow is in flight (the device mostly waits).
	TransferW map[string]units.Watts
}

// Power implements PowerModel.
func (m TableModel) Power(state State, ms string) units.Watts {
	switch state {
	case Processing:
		if w, ok := m.ProcessW[ms]; ok {
			return w
		}
	case Pulling, Receiving:
		if w, ok := m.TransferW[ms]; ok {
			return w
		}
	}
	return m.Fallback.Power(state, ms)
}
