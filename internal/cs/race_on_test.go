//go:build race

package cs

// raceEnabled reports whether the race detector is active. The allocation
// test is skipped under race: the detector randomizes sync.Pool retention,
// so pooled workspaces count as fresh allocations there.
const raceEnabled = true
