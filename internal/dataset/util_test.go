package dataset

import (
	"slices"
	"time"
)

func testTime() time.Time {
	return time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)
}

// walk clones every path a Paths walk of d yields, so tests can keep
// and compare them past the walk's next step.
func walk(d *Dataset) []PathObs {
	var out []PathObs
	for p := range d.Paths() {
		q := *p
		q.Path = slices.Clone(p.Path)
		q.Communities = slices.Clone(p.Communities)
		out = append(out, q)
	}
	return out
}
