package seq

import (
	"sort"
)

// Sort sorts the sequence in place into canonical order.
func (s Sequence) Sort() {
	sort.Slice(s, func(i, j int) bool { return Less(&s[i], &s[j]) })
}
