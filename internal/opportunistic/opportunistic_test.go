package opportunistic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mobility"
)

func peersAt(positions [][2]float64) []Peer {
	out := make([]Peer, len(positions))
	for i, p := range positions {
		out[i] = Peer{
			ID:      fmt.Sprintf("p%d", i),
			Pos:     mobility.Point{X: p[0], Y: p[1]},
			Battery: 1,
		}
	}
	return out
}

func TestClustersConnectedComponents(t *testing.T) {
	// Two tight groups far apart plus one loner.
	peers := peersAt([][2]float64{
		{0, 0}, {3, 0}, {6, 0}, // chain: 0-1-2 connected via 5 m hops
		{100, 100}, {102, 100}, // pair
		{500, 500}, // loner
	})
	clusters, err := Clusters(peers, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("clusters %v", clusters)
	}
	if len(clusters[0]) != 3 || len(clusters[1]) != 2 || len(clusters[2]) != 1 {
		t.Fatalf("cluster sizes %v", clusters)
	}
	// Transitivity: 0 and 2 are 6 m apart (> radius) but linked through 1.
	if clusters[0][0] != 0 || clusters[0][2] != 2 {
		t.Fatalf("chain cluster %v", clusters[0])
	}
}

func TestClustersValidation(t *testing.T) {
	if _, err := Clusters(nil, 0); err == nil {
		t.Fatal("want radius error")
	}
	clusters, err := Clusters(nil, 5)
	if err != nil || len(clusters) != 0 {
		t.Fatalf("empty input: %v %v", clusters, err)
	}
}

func TestElectPolicies(t *testing.T) {
	peers := peersAt([][2]float64{{0, 0}, {1, 0}, {2, 0}})
	peers[0].Battery = 0.2
	peers[1].Battery = 0.9
	peers[2].Battery = 0.5
	clusters := [][]int{{0, 1, 2}}
	first, err := Elect(peers, clusters, ElectFirst)
	if err != nil || first[0] != 0 {
		t.Fatalf("ElectFirst got %v err %v", first, err)
	}
	bat, err := Elect(peers, clusters, ElectBattery)
	if err != nil || bat[0] != 1 {
		t.Fatalf("ElectBattery got %v err %v", bat, err)
	}
	if _, err := Elect(peers, clusters, ElectionPolicy("dice")); err == nil {
		t.Fatal("want policy error")
	}
	if _, err := Elect(peers, [][]int{{}}, ElectFirst); err == nil {
		t.Fatal("want empty-cluster error")
	}
}

func TestCoverageLoss(t *testing.T) {
	peers := peersAt([][2]float64{{0, 0}, {4, 0}})
	clusters := [][]int{{0, 1}}
	reps := []int{0}
	if got := CoverageLoss(peers, clusters, reps); math.Abs(got-4) > 1e-12 {
		t.Fatalf("loss %v, want 4", got)
	}
	// Loner-only: no suppressed peers → zero loss.
	if got := CoverageLoss(peers[:1], [][]int{{0}}, []int{0}); got != 0 {
		t.Fatalf("loner loss %v", got)
	}
	if got := CoverageLoss(peers, clusters, nil); !math.IsNaN(got) {
		t.Fatal("mismatched inputs should be NaN")
	}
}

func TestDensityDrivesSuppression(t *testing.T) {
	// Denser crowds suppress a larger fraction — the protocol's whole
	// point. Simulate sparse vs dense pedestrian fields.
	run := func(n int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		peers := make([]Peer, n)
		for i := range peers {
			peers[i] = Peer{
				ID:  fmt.Sprintf("p%d", i),
				Pos: mobility.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			}
		}
		clusters, err := Clusters(peers, 15)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := Elect(peers, clusters, ElectFirst)
		if err != nil {
			t.Fatal(err)
		}
		return float64(n-len(reps)) / float64(n)
	}
	sparse := run(10, 1)
	dense := run(200, 1)
	if dense <= sparse {
		t.Fatalf("dense redundancy %v not above sparse %v", dense, sparse)
	}
	if dense < 0.5 {
		t.Fatalf("dense crowd redundancy only %v", dense)
	}
}

// Property: every peer appears in exactly one cluster, and the number of
// reports equals the number of clusters regardless of policy.
func TestPropPartitionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		peers := make([]Peer, n)
		for i := range peers {
			peers[i] = Peer{
				ID:      fmt.Sprintf("p%d", i),
				Pos:     mobility.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Battery: rng.Float64(),
			}
		}
		clusters, err := Clusters(peers, 5+rng.Float64()*20)
		if err != nil {
			return false
		}
		seen := map[int]int{}
		for _, members := range clusters {
			for _, m := range members {
				seen[m]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		reps, err := Elect(peers, clusters, ElectBattery)
		if err != nil || len(reps) != len(clusters) {
			return false
		}
		// Each representative belongs to its own cluster.
		for c, r := range reps {
			found := false
			for _, m := range clusters[c] {
				if m == r {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
