// Package opportunistic implements the Aquiba-style collaboration protocol
// the paper's related work builds on (Thepvilojanapong et al.): pedestrians
// that happen to be near each other form ad-hoc clusters, one
// representative per cluster senses and uploads, and the rest suppress
// their redundant reports — trading a little spatial resolution for large
// energy and traffic savings.
package opportunistic

import (
	"errors"
	"math"

	"repro/internal/mobility"
)

// Peer is one participating pedestrian at an instant.
type Peer struct {
	ID      string
	Pos     mobility.Point
	Battery float64 // remaining fraction, used by the battery election policy
}

// Clusters groups peers into connected components of the proximity graph:
// two peers are adjacent when within radius meters. Returned clusters are
// slices of indices into the input, each sorted ascending; the clusters
// themselves are ordered by their smallest member.
func Clusters(peers []Peer, radius float64) ([][]int, error) {
	if radius <= 0 {
		return nil, errors.New("opportunistic: radius must be positive")
	}
	n := len(peers)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := peers[i].Pos.X - peers[j].Pos.X
			dy := peers[i].Pos.Y - peers[j].Pos.Y
			if dx*dx+dy*dy <= r2 {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	// Deterministic order: by smallest member index.
	var roots []int
	for root := range groups {
		roots = append(roots, groups[root][0])
	}
	for i := 1; i < len(roots); i++ {
		for j := i; j > 0 && roots[j] < roots[j-1]; j-- {
			roots[j], roots[j-1] = roots[j-1], roots[j]
		}
	}
	out := make([][]int, 0, len(groups))
	for _, first := range roots {
		out = append(out, groups[find(first)])
	}
	return out, nil
}

// ElectionPolicy picks the representative within a cluster.
type ElectionPolicy string

// Election policies.
const (
	// ElectFirst picks the lowest-index member (deterministic baseline).
	ElectFirst ElectionPolicy = "first"
	// ElectBattery picks the member with the most battery, spreading the
	// sensing burden across encounters.
	ElectBattery ElectionPolicy = "battery"
)

// Elect returns the representative index (into peers) for each cluster.
func Elect(peers []Peer, clusters [][]int, policy ElectionPolicy) ([]int, error) {
	reps := make([]int, len(clusters))
	for c, members := range clusters {
		if len(members) == 0 {
			return nil, errors.New("opportunistic: empty cluster")
		}
		switch policy {
		case ElectBattery:
			best := members[0]
			for _, m := range members[1:] {
				if peers[m].Battery > peers[best].Battery {
					best = m
				}
			}
			reps[c] = best
		case ElectFirst, "":
			reps[c] = members[0]
		default:
			return nil, errors.New("opportunistic: unknown election policy " + string(policy))
		}
	}
	return reps, nil
}

// CoverageLoss estimates the spatial price of suppression: the mean
// distance (meters) from a suppressed peer to its cluster representative —
// how far the reported sample can be from the suppressed peer's location.
func CoverageLoss(peers []Peer, clusters [][]int, reps []int) float64 {
	if len(clusters) != len(reps) {
		return math.NaN()
	}
	total, n := 0.0, 0
	for c, members := range clusters {
		rp := peers[reps[c]].Pos
		for _, m := range members {
			if m == reps[c] {
				continue
			}
			dx := peers[m].Pos.X - rp.X
			dy := peers[m].Pos.Y - rp.Y
			total += math.Hypot(dx, dy)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
