package snapshot

// Test-only exports for the external test package (snapshot_test),
// whose tests corrupt v3 artifacts through the layout defined in
// format2.go rather than a copy of it.

import "testing"

// The v3 serving-index sections, in directory order.
const (
	SecASNs     = secASNs
	SecNbrOff   = secNbrOff
	SecNbrs     = secNbrs
	SecClassOff = secClassOff
	SecClassIdx = secClassIdx
	SecHybOff   = secHybOff
	SecHybIdx   = secHybIdx
	NumSections = numSections
)

// TinyV3 is the fuzz corpus's miniature world in the current
// fixed-width encoding.
func TinyV3(t testing.TB) []byte { return tinyV3(t) }

// SectionRecords returns the byte offset and record count of section i
// of the fixed-width artifact b.
func SectionRecords(t testing.TB, b []byte, i int) (off, n int) {
	t.Helper()
	lay, err := parseFixed(b[:min(len(b), v3HeaderSize)], b[max(0, len(b)-len(trailer)):], len(b))
	if err != nil {
		t.Fatal(err)
	}
	return lay.off[i], lay.cnt[i]
}

// Reseal recomputes every section checksum of a v3 artifact in place.
var Reseal = reseal
