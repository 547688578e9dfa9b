package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// imageSHA256 pins the exact bytes of a VM image emigrated from a small
// mixed fleet after two rounds, one VM per app class. The images cover
// the coordinated (scanner + heat index), LRU and VMM-exclusive guest
// paths.
var imageSHA256 = map[string]string{
	"GraphChi":   "f5aacb9bfd855f1bae986cd55fc61bd3e9f72b2d80e860d8448d505221fed6a7",
	"X-Stream":   "ded7f72364437ee6fdf0c02b85ddf5396493f397b16899d1fdfc006dcd4393f6",
	"Metis":      "cf5c6e8107f5690fc766fd77f56b7d7fd74a507c6530eef4dff3b20529f54d1a",
	"LevelDB":    "6a27a66c24aacaf40a393ccdc3f03231910f569a26518331f1be078120c4bd5d",
	"Redis":      "3ec96921de6dc6a39cb36922628c6a96cd0d4a0fa8a8b1b857ee85217dbeab44",
	"Nginx":      "cfa7abe1c5d2fe4ff52842d051c83f6ae9bdf2cd3bf402cd0febb3e4d122bbd2",
	"memlat":     "596d25f4282a0b59dd277bdb103ab5038325139936f260b5723d6b66f279d15c",
	"stream":     "612c00a7e824abe6c3974c86046d24756590586407cf4f10deaaf4b90fe5e543",
	"writeheavy": "c7213d39dbade5dd6ba933d2143281298f38630d192717f2202191ff288f51c9",
}

func TestVMImageBytesPinned(t *testing.T) {
	modes := []string{"HeteroOS-coordinated", "HeteroOS-LRU", "VMM-exclusive"}
	apps := []string{"GraphChi", "X-Stream", "Metis", "LevelDB", "Redis", "Nginx", "memlat", "stream", "writeheavy"}
	sc := &Script{
		Name: "image-pin", Seed: 5, Hosts: 3, Rounds: 4, RoundEpochs: 3, Scale: 512,
		Host:      HostDesc{FastFrames: 8192, SlowFrames: 32768, Share: "drf"},
		Placement: "first-fit",
	}
	for i, app := range apps {
		sc.VMs = append(sc.VMs, VMGroup{App: app, Mode: modes[i%len(modes)], FastPages: 512, SlowPages: 2048})
	}
	c, err := NewCluster(sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := c.StepRound(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.order {
		st := c.vms[id]
		img, err := c.hosts[st.host].sys.EmigrateVM(id)
		if err != nil {
			t.Fatalf("%s (VM %d): %v", st.app, id, err)
		}
		sum := sha256.Sum256(img.Data)
		if got, want := hex.EncodeToString(sum[:]), imageSHA256[st.app]; got != want {
			t.Errorf("%s (VM %d, %s): image sha256 = %s (%d bytes), want %s",
				st.app, id, st.mode, got, len(img.Data), want)
		}
	}
}
