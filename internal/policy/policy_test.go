package policy

import (
	"errors"
	"testing"

	"heteroos/internal/guestos"
)

func TestAllModesDistinctAndNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range All() {
		if m.Name == "" || m.Description == "" {
			t.Errorf("mode %+v missing name/description", m)
		}
		if seen[m.Name] {
			t.Errorf("duplicate mode name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if len(seen) != 11 {
		t.Fatalf("expected 11 modes, got %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name)
		if err != nil || got.Name != m.Name {
			t.Errorf("ByName(%q) failed: %v", m.Name, err)
		}
	}
	_, err := ByName("bogus")
	if err == nil {
		t.Error("bogus name resolved")
	}
	if !errors.Is(err, ErrUnknownMode) {
		t.Errorf("error %v does not wrap ErrUnknownMode", err)
	}
}

// TestByNameNoAllocs: a known name resolves without allocating, and the
// returned Mode is a copy a caller may change freely.
func TestByNameNoAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _, _ = ByName("HeteroOS-coordinated") }); a != 0 {
		t.Fatalf("ByName allocated %.1f times per lookup", a)
	}
	m, _ := ByName("Heap-OD")
	m.Placement.FastKinds[guestos.KindPageCache] = true
	m.Name = "changed"
	again, err := ByName("Heap-OD")
	if err != nil || again != HeapOD() {
		t.Fatalf("changing a looked-up Mode leaked into the catalog: %+v, %v", again, err)
	}
}

func TestTable5Order(t *testing.T) {
	rows := Table5()
	want := []string{"Heap-OD", "Heap-IO-Slab-OD", "HeteroOS-LRU", "HeteroOS-coordinated"}
	if len(rows) != len(want) {
		t.Fatalf("Table5 has %d rows", len(rows))
	}
	for i, w := range want {
		if rows[i].Name != w {
			t.Errorf("row %d = %q, want %q", i, rows[i].Name, w)
		}
	}
}

func TestIncrementalMechanismsBuild(t *testing.T) {
	// Each Table 5 row strictly adds capability to the previous one.
	heap := HeapOD()
	if !heap.Placement.FastKinds[guestos.KindAnon] || heap.Placement.FastKinds[guestos.KindPageCache] {
		t.Error("Heap-OD should prioritise only the heap")
	}
	his := HeapIOSlabOD()
	for _, k := range []guestos.PageKind{guestos.KindAnon, guestos.KindPageCache, guestos.KindNetBuf, guestos.KindSlab} {
		if !his.Placement.FastKinds[k] {
			t.Errorf("Heap-IO-Slab-OD missing kind %v", k)
		}
	}
	if his.Placement.HeteroLRU {
		t.Error("Heap-IO-Slab-OD must not enable HeteroOS-LRU")
	}
	lru := HeteroOSLRU()
	if !lru.Placement.HeteroLRU || lru.Migration != MigrateNone {
		t.Error("HeteroOS-LRU should add eager reclaim but no migration machinery")
	}
	coord := HeteroOSCoordinated()
	if !coord.Placement.HeteroLRU || coord.Migration != MigrateCoordinated || !coord.AdaptiveInterval {
		t.Error("coordinated should stack LRU + coordinated migration + Equation 1")
	}
}

func TestBaselines(t *testing.T) {
	if m := SlowMemOnly(); !m.NoFastMem || m.AllFastMem {
		t.Error("SlowMem-only flags wrong")
	}
	if m := FastMemOnly(); !m.AllFastMem || m.NoFastMem {
		t.Error("FastMem-only flags wrong")
	}
	if m := Random(); !m.Placement.Random {
		t.Error("Random flag missing")
	}
	if m := NUMAPreferred(); !m.Placement.NUMAPreferred {
		t.Error("NUMA-preferred flag missing")
	}
	if m := VMMExclusive(); m.GuestAware || m.Migration != MigrateVMMExclusive {
		t.Error("VMM-exclusive must be guest-transparent with VMM migration")
	}
}

func TestWriteAwareExtension(t *testing.T) {
	m := HeteroOSCoordinatedNVM()
	if !m.WriteAwareMigration || m.Migration != MigrateCoordinated || !m.Placement.HeteroLRU {
		t.Fatal("NVM mode must stack write awareness on the full coordinated system")
	}
	if HeteroOSCoordinated().WriteAwareMigration {
		t.Fatal("base coordinated mode must not track writes")
	}
}

func TestBareMetalMode(t *testing.T) {
	m := HeteroOSBareMetal()
	if !m.BareMetal || m.Migration != MigrateCoordinated || !m.Placement.HeteroLRU {
		t.Fatal("bare-metal must run the full coordinated stack")
	}
	if HeteroOSCoordinated().BareMetal {
		t.Fatal("virtualized mode must not claim bare metal")
	}
}

func TestMigrationModeString(t *testing.T) {
	if MigrateNone.String() != "none" ||
		MigrateVMMExclusive.String() != "VMM-exclusive" ||
		MigrateCoordinated.String() != "coordinated" {
		t.Error("migration mode names wrong")
	}
	if MigrationMode(42).String() == "" {
		t.Error("unknown mode should render")
	}
}
