package live

import (
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/intern"
)

// planeEngine maintains one plane's inference state incrementally.
//
// Communities: the aggregate vote table is the sum of per-path vote
// emissions (communityinfer.PathVotes) over the active paths. A path
// activation adds its emissions, a deactivation subtracts the very
// same ones, and only the touched links are re-resolved — integer
// vote counts are order-independent, so the aggregate always equals
// what batch Infer would compute over the current active set.
//
// LocPrf: calibration is per vantage and reads the communities table
// only on links incident to that vantage (the first hop of its own
// paths). Each vantage's eligible active paths are kept as counted
// locpref.Evidence — a TE-filtered count plus (neighbor, LocPrf)
// buckets — folded ±1 as paths activate and deactivate. A vantage needs
// recalibrating exactly when (a) its evidence changed, or (b) the
// communities table changed on a link it is an endpoint of.
// Recalibration subtracts the vantage's previous vote contributions,
// reruns locpref.Calibrate over its buckets, and adds the new ones, so
// it costs the vantage's buckets, not its paths; vote counts are
// order-independent, so the aggregate again matches batch Infer
// exactly.
type planeEngine struct {
	d    *dataset.Dataset
	dict *community.Dictionary
	cfg  locpref.Config

	// commTable and lpTable are frozen: resolve replaces them with
	// patched copies, so snapshots can share them without copying.
	comm      *infer.VoteTable
	commTable *intern.Table

	lp       *infer.VoteTable
	lpTable  *intern.Table
	lpVotes  map[asrel.ASN][]lpVote          // last emitted votes per vantage
	evidence map[asrel.ASN]*locpref.Evidence // eligible active paths per vantage, counted

	dirtyComm map[asrel.LinkKey]struct{}
	dirtyVant map[asrel.ASN]struct{}
	lpDirty   map[asrel.LinkKey]struct{} // resolve scratch: links whose LocPrf votes moved
	changed   []uint64                   // resolve scratch: packed links whose relationship moved
	scratch   dataset.PathObs            // the record activate and deactivate read

	// fullRecomputes / incrementalResolves count resolve() strategies
	// taken, for observability and tests.
	fullRecomputes      int
	incrementalResolves int
}

// lpVote is one counted LocPrf emission: n votes that a (toward b)
// has relationship rel.
type lpVote struct {
	a, b asrel.ASN
	rel  asrel.Rel
	n    int
}

func newPlaneEngine(d *dataset.Dataset, dict *community.Dictionary, cfg locpref.Config) *planeEngine {
	return &planeEngine{
		d: d, dict: dict, cfg: cfg,
		comm:      infer.NewVoteTable(),
		commTable: new(intern.Table),
		lp:        infer.NewVoteTable(),
		lpTable:   new(intern.Table),
		lpVotes:   make(map[asrel.ASN][]lpVote),
		evidence:  make(map[asrel.ASN]*locpref.Evidence),
		dirtyComm: make(map[asrel.LinkKey]struct{}),
		dirtyVant: make(map[asrel.ASN]struct{}),
		lpDirty:   make(map[asrel.LinkKey]struct{}),
	}
}

// activate folds the evidence of record idx, newly active, in.
func (e *planeEngine) activate(idx int32) {
	p := e.d.Record(idx, &e.scratch)
	communityinfer.PathVotes(p, e.dict, func(a, b asrel.ASN, rel asrel.Rel) {
		e.comm.Add(a, b, rel)
		e.dirtyComm[asrel.Key(a, b)] = struct{}{}
	})
	if locpref.Eligible(p) {
		ev := e.evidence[p.Vantage]
		if ev == nil {
			ev = &locpref.Evidence{}
			e.evidence[p.Vantage] = ev
		}
		ev.Fold(p, e.dict, 1)
		e.dirtyVant[p.Vantage] = struct{}{}
	}
}

// deactivate retracts the evidence of record idx, withdrawn — the
// exact votes and bucket counts activate added, replayed with opposite
// sign.
func (e *planeEngine) deactivate(idx int32) {
	p := e.d.Record(idx, &e.scratch)
	communityinfer.PathVotes(p, e.dict, func(a, b asrel.ASN, rel asrel.Rel) {
		e.comm.Sub(a, b, rel)
		e.dirtyComm[asrel.Key(a, b)] = struct{}{}
	})
	if locpref.Eligible(p) {
		if ev := e.evidence[p.Vantage]; ev != nil {
			ev.Fold(p, e.dict, -1)
			if ev.Empty() {
				delete(e.evidence, p.Vantage)
			}
		}
		e.dirtyVant[p.Vantage] = struct{}{}
	}
}

// release drops one route's reference on record idx, retracting the
// path's evidence when it was the last.
func (e *planeEngine) release(idx int32) {
	if e.d.Release(idx) {
		e.deactivate(idx)
	}
}

// dirty returns the resolve workload estimate: links with changed
// community votes plus vantages needing a LocPrf recomputation.
func (e *planeEngine) dirty() int { return len(e.dirtyComm) + len(e.dirtyVant) }

// resolve brings the two relationship tables up to date with the
// accumulated dirty set. When the dirty set exceeds threshold×links it
// falls back to a full recompute — past that point rebuilding from the
// active paths is cheaper than patching.
func (e *planeEngine) resolve(threshold float64) {
	if e.dirty() == 0 {
		return
	}
	if limit := threshold * float64(e.d.NumLinks()); float64(e.dirty()) > limit {
		e.recompute()
		return
	}
	e.incrementalResolves++

	// Communities first: LocPrf calibration reads the updated table.
	changed := e.changed[:0]
	for k := range e.dirtyComm {
		if resolved(e.comm, k) == e.commTable.GetKey(k) {
			continue
		}
		changed = append(changed, intern.Pack(k))
		// A base change on this link can shift the calibration of a
		// vantage sitting on either end.
		e.touchVantage(k.Lo)
		e.touchVantage(k.Hi)
	}
	clear(e.dirtyComm)
	e.commTable = patch(e.commTable, e.comm, changed)

	for v := range e.dirtyVant {
		contrib := e.lpVotes[v]
		for _, c := range contrib {
			e.lp.SubN(c.a, c.b, c.rel, c.n)
			e.lpDirty[asrel.Key(c.a, c.b)] = struct{}{}
		}
		e.calibrate(v, contrib[:0])
	}
	clear(e.dirtyVant)

	changed = changed[:0]
	for k := range e.lpDirty {
		if resolved(e.lp, k) != e.lpTable.GetKey(k) {
			changed = append(changed, intern.Pack(k))
		}
	}
	clear(e.lpDirty)
	e.lpTable = patch(e.lpTable, e.lp, changed)
	e.changed = changed
}

// resolved returns the relationship votes currently resolve k to,
// Unknown when the link has no votes left.
func resolved(votes *infer.VoteTable, k asrel.LinkKey) asrel.Rel {
	v, _ := votes.Get(k) // an absent link's zero Votes resolve to Unknown
	return v.Resolve()
}

// patch returns t with the changed links (packed, any order; sorted in
// place) set to what votes now resolve them to, in one intern.Patch
// sweep — a link resolving to Unknown is removed. t itself is never
// modified: snapshots taken earlier may share it.
func patch(t *intern.Table, votes *infer.VoteTable, changed []uint64) *intern.Table {
	if len(changed) == 0 {
		return t
	}
	slices.Sort(changed)
	rels := make([]asrel.Rel, len(changed))
	for i, u := range changed {
		rels[i] = resolved(votes, intern.Unpack(u))
	}
	return intern.Patch(t, intern.TableFromSorted(changed, rels))
}

// calibrate reruns vantage v's LocPrf calibration from its evidence,
// adding the emitted votes to the aggregate and appending them to
// contrib (an emptied slice whose storage is reused) as the vantage's
// contribution, to retract on its next recalibration.
func (e *planeEngine) calibrate(v asrel.ASN, contrib []lpVote) {
	if ev := e.evidence[v]; ev != nil {
		locpref.Calibrate(v, ev, e.commTable, e.cfg, func(a, b asrel.ASN, rel asrel.Rel, n int) {
			contrib = append(contrib, lpVote{a, b, rel, n})
			e.lp.AddN(a, b, rel, n)
			e.lpDirty[asrel.Key(a, b)] = struct{}{}
		})
	}
	if len(contrib) == 0 {
		delete(e.lpVotes, v)
	} else {
		e.lpVotes[v] = contrib
	}
}

func (e *planeEngine) touchVantage(v asrel.ASN) {
	if e.evidence[v] != nil || len(e.lpVotes[v]) > 0 {
		e.dirtyVant[v] = struct{}{}
	}
}

// recompute rebuilds the engine's vote state from the dataset's active
// paths — structurally the same computation batch Infer runs, kept as
// the seeding path and the past-threshold fallback.
func (e *planeEngine) recompute() {
	e.fullRecomputes++
	e.comm = infer.NewVoteTable()
	e.lp = infer.NewVoteTable()
	clear(e.lpVotes)
	clear(e.dirtyComm)
	clear(e.dirtyVant)

	paths := e.d.Paths()
	for p := range paths {
		communityinfer.PathVotes(p, e.dict, e.comm.Add)
	}
	e.commTable = e.comm.Resolve()

	e.evidence = locpref.Group(paths, e.dict)
	for v := range e.evidence {
		e.calibrate(v, nil)
	}
	clear(e.lpDirty)
	e.lpTable = e.lp.Resolve()
}

// results packages the current tables as inference results for
// core.Assemble. The tables are immutable — resolve swaps in patched
// copies — so the snapshot and the history ring share them as is.
func (e *planeEngine) results() (*communityinfer.Result, *locpref.Result) {
	return &communityinfer.Result{Table: e.commTable}, &locpref.Result{Table: e.lpTable}
}
