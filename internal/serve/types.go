// JSON schema of the serving API. These structs are the single source
// of truth for machine-readable output: the HTTP handlers marshal
// them, and the CLIs' -json modes emit the very same types, so the
// batch and serving schemas cannot drift apart.
package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/snapshot"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RelResponse answers GET /v1/rel?a=&b=: both planes' relationships
// for one AS pair, oriented from a to b, plus the hybrid verdict.
type RelResponse struct {
	A uint32 `json:"a"`
	B uint32 `json:"b"`
	// V4 / V6 are the recovered relationships of a toward b ("p2c"
	// reads "a is a provider of b"); "unknown" when unclassified.
	V4 string `json:"v4"`
	V6 string `json:"v6"`
	// In4 / In6 report the planes the link was observed in.
	In4       bool `json:"in4"`
	In6       bool `json:"in6"`
	DualStack bool `json:"dual_stack"`
	Hybrid    bool `json:"hybrid"`
	// Class is the hybrid taxonomy label, present only for hybrids.
	Class string `json:"class,omitempty"`
	// Visibility6 is the number of unique IPv6 paths crossing the link.
	Visibility6 int `json:"visibility6"`
}

// HybridJSON is one hybrid link, as listed by GET /v1/hybrids and the
// per-AS view. A and B are in canonical order (A < B); V4/V6 are
// oriented from A to B.
type HybridJSON struct {
	A          uint32 `json:"a"`
	B          uint32 `json:"b"`
	V4         string `json:"v4"`
	V6         string `json:"v6"`
	Class      string `json:"class"`
	Visibility int    `json:"visibility"`
}

// HybridsResponse answers GET /v1/hybrids with pagination metadata.
type HybridsResponse struct {
	// Total counts the hybrids matching the filter, before pagination.
	Total   int          `json:"total"`
	Offset  int          `json:"offset"`
	Limit   int          `json:"limit"`
	Class   string       `json:"class,omitempty"`
	Hybrids []HybridJSON `json:"hybrids"`
}

// NeighborJSON is one adjacency of the queried AS. V4/V6 are oriented
// from the queried AS toward the neighbor.
type NeighborJSON struct {
	ASN         uint32 `json:"asn"`
	In4         bool   `json:"in4"`
	In6         bool   `json:"in6"`
	DualStack   bool   `json:"dual_stack"`
	V4          string `json:"v4"`
	V6          string `json:"v6"`
	Hybrid      bool   `json:"hybrid"`
	Class       string `json:"class,omitempty"`
	Visibility6 int    `json:"visibility6"`
}

// ASResponse answers GET /v1/as/{asn}: the AS's observed adjacency
// with per-plane relationships and its hybrid links.
type ASResponse struct {
	ASN       uint32         `json:"asn"`
	Degree4   int            `json:"degree4"`
	Degree6   int            `json:"degree6"`
	Neighbors []NeighborJSON `json:"neighbors"`
	Hybrids   []HybridJSON   `json:"hybrids"`
}

// CoverageJSON mirrors core.Coverage plus its derived shares.
type CoverageJSON struct {
	Paths6             int     `json:"paths6"`
	Links6             int     `json:"links6"`
	Links4             int     `json:"links4"`
	DualStack          int     `json:"dual_stack"`
	Classified6        int     `json:"classified6"`
	ClassifiedDual     int     `json:"classified_dual"`
	ClassifiedDualBoth int     `json:"classified_dual_both"`
	Share6             float64 `json:"share6"`
	ShareDual          float64 `json:"share_dual"`
}

// CensusJSON mirrors core.HybridCensus; ByClass is keyed by the
// taxonomy labels of asrel.HybridClass.String.
type CensusJSON struct {
	DualClassified int            `json:"dual_classified"`
	Hybrid         int            `json:"hybrid"`
	HybridShare    float64        `json:"hybrid_share"`
	ByClass        map[string]int `json:"by_class"`
}

// VisibilityJSON mirrors core.Visibility plus its derived share.
type VisibilityJSON struct {
	Paths                    int     `json:"paths"`
	PathsWithHybrid          int     `json:"paths_with_hybrid"`
	Share                    float64 `json:"share"`
	MeanHybridEndpointDegree float64 `json:"mean_hybrid_endpoint_degree"`
	MeanDualEndpointDegree   float64 `json:"mean_dual_endpoint_degree"`
}

// ValleyJSON mirrors valley.Stats plus its derived shares.
type ValleyJSON struct {
	Total          int     `json:"total"`
	ValleyFree     int     `json:"valley_free"`
	Valley         int     `json:"valley"`
	Unclassified   int     `json:"unclassified"`
	Necessary      int     `json:"necessary"`
	ValleyShare    float64 `json:"valley_share"`
	NecessaryShare float64 `json:"necessary_share"`
}

// StatsResponse answers GET /v1/stats: every headline statistic of the
// loaded snapshot, plus live-mode freshness. Generation counts
// snapshot installs on this server (strictly monotone across
// hot-swaps, starting at 1); SnapshotAgeSeconds is the age of the
// currently-installed snapshot at response time. Both are zero in
// offline contexts (CLI -json output, StatsOf) where no server is
// involved.
type StatsResponse struct {
	Coverage   CoverageJSON   `json:"coverage"`
	Census     CensusJSON     `json:"census"`
	Visibility VisibilityJSON `json:"visibility"`
	Valley     ValleyJSON     `json:"valley"`

	Generation         uint64  `json:"generation"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// ChangeJSON is one relationship-change event: on plane "ipv4" or
// "ipv6", the link {a, b} (canonical order, a < b) appeared, vanished,
// or flipped class between two consecutively installed snapshots.
// From/To are the a→b relationships before and after ("unknown" on the
// absent side of an appearance or vanishing). The schema carries no
// timestamps by design: replaying a feed twice must yield
// byte-identical change sequences.
type ChangeJSON struct {
	Plane string `json:"plane"`
	Kind  string `json:"kind"` // link-appeared | link-vanished | class-flipped
	A     uint32 `json:"a"`
	B     uint32 `json:"b"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// ChangeBatchJSON is the change set of one snapshot install, tagged
// with the generation it produced.
type ChangeBatchJSON struct {
	Generation uint64       `json:"generation"`
	Changes    []ChangeJSON `json:"changes"`
}

// ChangesResponse answers GET /v1/changes?since=&limit=: whole change
// batches with generation > since, oldest first. Next is the cursor
// for the following page (pass it back as ?since=); HasMore reports
// whether batches past this page already exist; Current is the
// server's newest generation.
type ChangesResponse struct {
	Since   uint64            `json:"since"`
	Next    uint64            `json:"next"`
	Current uint64            `json:"current"`
	HasMore bool              `json:"has_more"`
	Batches []ChangeBatchJSON `json:"batches"`
}

// planeLabel renders an address family as the API's lowercase plane
// label.
func planeLabel(af asrel.AF) string {
	if af == asrel.IPv6 {
		return "ipv6"
	}
	return "ipv4"
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	ASNs    int    `json:"asns"`
	Links4  int    `json:"links4"`
	Links6  int    `json:"links6"`
	Hybrids int    `json:"hybrids"`
	// LoadedAt is the RFC 3339 time the current snapshot was installed.
	LoadedAt string `json:"loaded_at"`
}

// StatsOf converts a snapshot's statistics into the API schema.
func StatsOf(s *snapshot.Snapshot) StatsResponse {
	byClass := make(map[string]int, len(s.Census.ByClass))
	for cl, n := range s.Census.ByClass {
		byClass[cl.String()] = n
	}
	return StatsResponse{
		Coverage: CoverageJSON{
			Paths6:             s.Coverage.Paths6,
			Links6:             s.Coverage.Links6,
			Links4:             s.Coverage.Links4,
			DualStack:          s.Coverage.DualStack,
			Classified6:        s.Coverage.Classified6,
			ClassifiedDual:     s.Coverage.ClassifiedDual,
			ClassifiedDualBoth: s.Coverage.ClassifiedDualBoth,
			Share6:             s.Coverage.Share6(),
			ShareDual:          s.Coverage.ShareDual(),
		},
		Census: CensusJSON{
			DualClassified: s.Census.DualClassified,
			Hybrid:         s.Census.Hybrid,
			HybridShare:    s.Census.HybridShare(),
			ByClass:        byClass,
		},
		Visibility: VisibilityJSON{
			Paths:                    s.Visibility.Paths,
			PathsWithHybrid:          s.Visibility.PathsWithHybrid,
			Share:                    s.Visibility.Share(),
			MeanHybridEndpointDegree: s.Visibility.MeanHybridEndpointDegree,
			MeanDualEndpointDegree:   s.Visibility.MeanDualEndpointDegree,
		},
		Valley: ValleyJSON{
			Total:          s.Valley.Total,
			ValleyFree:     s.Valley.ValleyFree,
			Valley:         s.Valley.Valley,
			Unclassified:   s.Valley.Unclassified,
			Necessary:      s.Valley.Necessary,
			ValleyShare:    s.Valley.ValleyShare(),
			NecessaryShare: s.Valley.NecessaryShare(),
		},
	}
}

// HybridsOf converts a hybrid link list into the API schema.
func HybridsOf(hs []core.HybridLink) []HybridJSON {
	out := make([]HybridJSON, len(hs))
	for i, h := range hs {
		out[i] = hybridJSON(h)
	}
	return out
}

func hybridJSON(h core.HybridLink) HybridJSON {
	return HybridJSON{
		A:          uint32(h.Key.Lo),
		B:          uint32(h.Key.Hi),
		V4:         h.V4.String(),
		V6:         h.V6.String(),
		Class:      h.Class.String(),
		Visibility: h.Visibility,
	}
}

// queryValue returns the first value of key in the raw query string —
// exactly what url.ParseQuery(raw).Get(key) returns: pairs split on
// '&', pairs holding ';' or failing to unescape skipped — without
// building the url.Values map, which was the largest share of a read
// request's garbage. It allocates only to unescape.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// ParseASN parses an AS number in either bare ("64500") or prefixed
// ("AS64500") form.
func ParseASN(s string) (asrel.ASN, error) {
	t := strings.TrimSpace(s)
	if len(t) > 2 && (strings.HasPrefix(t, "AS") || strings.HasPrefix(t, "as")) {
		t = t[2:]
	}
	v, err := strconv.ParseUint(t, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid AS number %q", s)
	}
	return asrel.ASN(v), nil
}

// ParseClass parses a hybrid class filter: the paper's shorthand (h1,
// h2, h3, other) or the full taxonomy labels of HybridClass.String.
func ParseClass(s string) (asrel.HybridClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "h1", "v4-p2p/v6-transit":
		return asrel.HybridPeerTransit, nil
	case "h2", "v4-transit/v6-p2p":
		return asrel.HybridTransitPeer, nil
	case "h3", "v4-p2c/v6-c2p":
		return asrel.HybridReversed, nil
	case "other", "hybrid-other":
		return asrel.HybridOther, nil
	}
	return asrel.NotHybrid, fmt.Errorf("unknown hybrid class %q (want h1, h2, h3 or other)", s)
}
