package live

import "hybridrel/internal/asrel"

// LocPrfState reports, for one plane's engine, whether it holds LocPrf
// evidence for vantage v and how many counted votes v last emitted.
func (ap *Applier) LocPrfState(af asrel.AF, v asrel.ASN) (hasEvidence bool, votes int) {
	e := ap.e4
	if af == asrel.IPv6 {
		e = ap.e6
	}
	for _, c := range e.lpVotes[v] {
		votes += c.n
	}
	return e.evidence[v] != nil, votes
}
