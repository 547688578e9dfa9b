package memsim

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the machine's mutable state: per-tier specs (a
// throttle-shift fault may have replaced the boot-time ones), the spec
// generation, per-frame ownership, and the free lists in their exact
// runtime order (allocation pops from the end, so order is behavioural
// state).
func (m *Machine) Snapshot(e *snapshot.Encoder) {
	for t := Tier(0); t < NumTiers; t++ {
		e.U64(uint64(m.base[t]))
		e.U64(m.size[t])
		e.JSON(&m.spec[t])
	}
	e.U64(m.specGen)
	e.Grow(4 + 4*len(m.owner))
	e.U32(uint32(len(m.owner)))
	for _, o := range m.owner {
		e.U32(uint32(o))
	}
	for t := Tier(0); t < NumTiers; t++ {
		// The same bytes as U64s over the list as []uint64.
		e.Grow(4 + 8*len(m.free[t]) + 16)
		e.U32(uint32(len(m.free[t])))
		for _, mfn := range m.free[t] {
			e.U64(uint64(mfn))
		}
		e.U64(m.freeCnt[t])
		e.U64(m.allocCnt[t])
	}
}

// Restore overwrites the machine's mutable state from a snapshot taken
// on a machine of the same geometry.
func (m *Machine) Restore(d *snapshot.Decoder) error {
	for t := Tier(0); t < NumTiers; t++ {
		base, size := MFN(d.U64()), d.U64()
		if base != m.base[t] || size != m.size[t] {
			return fmt.Errorf("memsim: snapshot %v extent [%d,+%d) != machine [%d,+%d)",
				t, base, size, m.base[t], m.size[t])
		}
		if err := d.JSON(&m.spec[t]); err != nil {
			return err
		}
	}
	m.specGen = d.U64()
	if n := int(d.U32()); n != len(m.owner) {
		return fmt.Errorf("memsim: snapshot has %d frames, machine has %d", n, len(m.owner))
	}
	for i := range m.owner {
		m.owner[i] = Owner(d.U32())
	}
	for t := Tier(0); t < NumTiers; t++ {
		free := d.U64s()
		m.free[t] = m.free[t][:0]
		for _, mfn := range free {
			m.free[t] = append(m.free[t], MFN(mfn))
		}
		m.freeCnt[t] = d.U64()
		m.allocCnt[t] = d.U64()
	}
	return d.Err()
}

// StateSnapshotter is implemented by backends that carry mutable run
// state beyond the machine (e.g. Replay's trace cursor). Stateless
// backends (analytic) need not implement it.
type StateSnapshotter interface {
	SnapshotState(e *snapshot.Encoder)
	RestoreState(d *snapshot.Decoder) error
}

// SnapshotState serializes the replay cursor and divergence counters.
func (r *Replay) SnapshotState(e *snapshot.Encoder) {
	e.U64(uint64(len(r.trace.Records)))
	e.Int(r.cursor)
	e.U64(r.diverged)
	e.U64(r.overrun)
}

// RestoreState repositions the replay cursor. The backend must have
// been built over the same trace the snapshot was taken with.
func (r *Replay) RestoreState(d *snapshot.Decoder) error {
	n := d.U64()
	if n != uint64(len(r.trace.Records)) {
		return fmt.Errorf("memsim: snapshot replay trace has %d records, backend has %d",
			n, len(r.trace.Records))
	}
	cursor := d.Int()
	if cursor < 0 || cursor > len(r.trace.Records) {
		return fmt.Errorf("memsim: snapshot replay cursor %d out of range", cursor)
	}
	r.cursor = cursor
	r.diverged = d.U64()
	r.overrun = d.U64()
	return d.Err()
}
