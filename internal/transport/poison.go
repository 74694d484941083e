//go:build !race

package transport

// poison is a no-op outside the race detector; see poison_race.go.
func poison([]byte) {}
