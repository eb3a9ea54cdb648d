package bgpsim

import (
	"hash/fnv"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// VantageView is what one collector peer announces for one origin: the
// selected AS path (vantage first, origin last) and the attributes the
// collector records — the accumulated Communities and, for iBGP-style
// feeds, the vantage's LOCAL_PREF.
type VantageView struct {
	Vantage     asrel.ASN
	Path        []asrel.ASN
	Communities []bgp.Community
	LocPrf      uint32
	HasLocPrf   bool
	// TE marks a route whose LocPrf was overridden for traffic
	// engineering (the matching TE community is in Communities).
	TE bool
}

// Views extracts every vantage's announced route from a propagation
// result, in ascending vantage ASN order. Vantages without a route (or
// with a degenerate stale-leak path) are omitted.
func (s *Sim) Views(res *Result) []VantageView {
	out := make([]VantageView, 0, len(s.vantages))
	for _, vi := range s.vantages {
		v := s.g.Nodes()[vi]
		path := res.PathTo(v)
		if path == nil {
			continue
		}
		out = append(out, s.buildView(v, path))
	}
	return out
}

// buildView synthesizes the attributes of one vantage route by walking
// the path from the origin toward the vantage, applying each hop's
// community policy: scrubbers clear the accumulated list on ingress,
// taggers append their relationship community for the edge the route
// arrived on.
func (s *Sim) buildView(vantage asrel.ASN, path []asrel.ASN) VantageView {
	view := VantageView{Vantage: vantage, Path: path}
	truth := s.in.TruthFor(s.af)
	origin := path[len(path)-1]

	var comms []bgp.Community
	// Origin-side traffic engineering: the origin sometimes attaches its
	// provider's TE (action) community when announcing.
	if len(path) >= 2 {
		upstream := path[len(path)-2]
		up := s.in.AS(upstream)
		if len(up.Policy.TETags) > 0 && s.chance(origin, upstream, 0x7e) {
			comms = append(comms, bgp.MakeCommunity(uint16(upstream), up.Policy.TETags[0]))
		}
	}
	for i := len(path) - 2; i >= 0; i-- {
		w := path[i]
		pol := &s.in.AS(w).Policy
		if pol.Strips {
			comms = comms[:0]
		}
		if tag, ok := pol.TagFor(truth.Get(w, path[i+1])); ok {
			comms = append(comms, bgp.MakeCommunity(uint16(w), tag))
		}
	}

	vp := &s.in.AS(vantage).Policy
	if len(path) == 1 {
		// The vantage's own prefix: default preference, no communities.
		view.LocPrf, view.HasLocPrf = 100, s.in.VantageLocPrf[vantage]
		view.Communities = comms
		return view
	}
	view.LocPrf = vp.LocPrfFor(truth.Get(vantage, path[1]))
	view.HasLocPrf = s.in.VantageLocPrf[vantage]
	// Vantage-side traffic engineering: LocPrf override plus TE tag.
	if len(vp.TETags) > 0 && s.chance(vantage, origin, 0x11) {
		view.TE = true
		te := vp.TETags[int(hash3(uint32(vantage), uint32(origin), 0x22))%len(vp.TETags)]
		comms = append(comms, bgp.MakeCommunity(uint16(vantage), te))
		if hash3(uint32(vantage), uint32(origin), 0x33)&1 == 0 {
			// Backup path: depressed below the provider band.
			if vp.LocProvider > 25 {
				view.LocPrf = vp.LocProvider - 25
			} else {
				view.LocPrf = 1
			}
		} else {
			// Pinned preferred path: raised above the customer band.
			view.LocPrf = vp.LocCustomer + 40
		}
	}
	view.Communities = comms
	return view
}

// chance returns a deterministic pseudo-random event with probability
// Cfg.TEProb, keyed by the pair of ASNs and a salt so distinct decision
// points decorrelate.
func (s *Sim) chance(a, b asrel.ASN, salt uint32) bool {
	p := s.in.Cfg.TEProb
	if p <= 0 {
		return false
	}
	h := hash3(uint32(a), uint32(b), salt^uint32(s.in.Cfg.Seed))
	return float64(h%10000) < p*10000
}

func hash3(a, b, c uint32) uint32 {
	h := fnv.New32a()
	var buf [12]byte
	buf[0], buf[1], buf[2], buf[3] = byte(a>>24), byte(a>>16), byte(a>>8), byte(a)
	buf[4], buf[5], buf[6], buf[7] = byte(b>>24), byte(b>>16), byte(b>>8), byte(b)
	buf[8], buf[9], buf[10], buf[11] = byte(c>>24), byte(c>>16), byte(c>>8), byte(c)
	h.Write(buf[:])
	return h.Sum32()
}
