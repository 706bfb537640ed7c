//go:build !race

package fleetd

const raceEnabled = false
