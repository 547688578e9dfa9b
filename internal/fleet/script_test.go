package fleet

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"heteroos/internal/memsim"
)

// validScript returns a minimal script that passes Validate; each case
// mutates one field to provoke one rejection.
func validScript() *Script {
	return &Script{
		Name: "v", Seed: 1, Hosts: 2, Rounds: 4, RoundEpochs: 2,
		Host: HostDesc{FastFrames: 8192, SlowFrames: 32768},
		VMs: []VMGroup{
			{App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 4096, SlowPages: 16384},
		},
		Events: []Event{{At: 1, Kind: KindSurge, VM: 1, Factor: 2}},
	}
}

func TestScriptValidateAcceptsDefaults(t *testing.T) {
	sc := validScript()
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	if sc.share() != "static" || sc.backend() != "analytic" || sc.placement() != PlacementFirstFit {
		t.Errorf("defaults: share=%q backend=%q placement=%q", sc.share(), sc.backend(), sc.placement())
	}
	if sc.TotalVMs() != 1 {
		t.Errorf("TotalVMs = %d, want 1", sc.TotalVMs())
	}
}

func TestScriptValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Script)
		want string
	}{
		{"no name", func(sc *Script) { sc.Name = "" }, "missing name"},
		{"no hosts", func(sc *Script) { sc.Hosts = 0 }, "at least 1 host"},
		{"no rounds", func(sc *Script) { sc.Rounds = 0 }, "rounds >= 1"},
		{"no host shape", func(sc *Script) { sc.Host.FastFrames = 0 }, "host shape"},
		{"bad share", func(sc *Script) { sc.Host.Share = "equal" }, "share policy"},
		{"bad backend", func(sc *Script) { sc.Host.Backend = "exact" }, "backend"},
		{"coarse backend", func(sc *Script) { sc.Host.Backend = "coarse" }, "unknown backend"},
		{"bad placement", func(sc *Script) { sc.Placement = "spread" }, "placement policy"},
		{"bad mode", func(sc *Script) { sc.VMs[0].Mode = "nope" }, "nope"},
		{"bad app", func(sc *Script) { sc.VMs[0].App = "nope" }, "nope"},
		{"zero span", func(sc *Script) { sc.VMs[0].FastPages, sc.VMs[0].SlowPages = 0, 0 }, "zero-page span"},
		{"oversized span", func(sc *Script) { sc.VMs[0].FastPages = 9000 }, "exceeds the host shape"},
		{"negative count", func(sc *Script) { sc.VMs[0].Count = -1 }, "negative count"},
		{"event out of range", func(sc *Script) { sc.Events[0].At = 4 }, "outside"},
		{"boot without group", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindBoot} }, "no VM group"},
		{"surge without target", func(sc *Script) { sc.Events[0].VM = 0 }, "exactly one of vm or count"},
		{"surge with both targets", func(sc *Script) { sc.Events[0].Count = 2 }, "exactly one of vm or count"},
		{"surge of unbooted vm", func(sc *Script) { sc.Events[0].VM = 9 }, "only boots 1"},
		{"negative factor", func(sc *Script) { sc.Events[0].Factor = -1 }, "negative factor"},
		{"host-fail out of range", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindHostFail, Host: 2} }, "host-fail"},
		{"unknown kind", func(sc *Script) { sc.Events[0].Kind = "reboot" }, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScript()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad script")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A JSON script naming a backend memsim does not build fails with
	// the typed error instead of silently changing pricing.
	sc := validScript()
	sc.Host.Backend = "coarse"
	js, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(js); !errors.Is(err, memsim.ErrUnknownBackend) {
		t.Errorf("Parse with backend coarse = %v, want ErrUnknownBackend", err)
	}
}

func TestBundledScriptsParse(t *testing.T) {
	names := Bundled()
	if len(names) < 2 {
		t.Fatalf("expected at least 2 bundled scripts, have %v", names)
	}
	for _, name := range names {
		sc, err := LoadBundled(name)
		if err != nil {
			t.Errorf("LoadBundled(%q): %v", name, err)
			continue
		}
		if sc.TotalVMs() == 0 {
			t.Errorf("%q boots no VMs", name)
		}
	}
	sc, err := LoadBundled("fleet-churn-1k.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Hosts != 1000 || sc.TotalVMs() != 10000 {
		t.Errorf("1k script: hosts=%d vms=%d, want 1000 hosts / 10000 VMs", sc.Hosts, sc.TotalVMs())
	}
}

func TestLoadFileFallsBackToBundled(t *testing.T) {
	sc, err := LoadFile("no/such/dir/fleet-churn.json")
	if err != nil {
		t.Fatalf("LoadFile should fall back to the bundled script: %v", err)
	}
	if sc.Name != "fleet-churn" {
		t.Errorf("loaded %q", sc.Name)
	}
	if _, err := LoadFile("definitely-missing.json"); err == nil {
		t.Error("a path matching no file and no bundled script should error")
	}
}
