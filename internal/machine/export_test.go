package machine

import "repro/internal/sim"

// WatchDeliveries puts check in front of every delivery on every machine New
// builds, until the returned stop is called: it sees the delivery event's
// time and the packet before the machine does.
func WatchDeliveries(check func(at sim.Time, p *Packet)) (stop func()) {
	watch = func(m *Machine) {
		m.deliverKind = m.Eng.Register(func(lane int, at sim.Time, arg any) {
			check(at, arg.(*Packet))
			m.nodes[lane-1].deliver(at, arg.(*Packet), false)
		})
		m.arriveKind = m.Eng.Register(func(lane int, at sim.Time, arg any) {
			check(at, arg.(*Packet))
			m.nodes[lane-1].deliver(at, arg.(*Packet), true)
		})
	}
	return func() { watch = nil }
}
