package serve

// Time-travel queries and the relationship-change journal.
//
// With WithHistory(n) the server keeps a bounded ring of the last n
// installed states — each already generation-stamped and indexed — and
// answers ?at=<RFC3339|unix> on the read endpoints against the newest
// ring entry not younger than the requested time. Requests for times
// before the ring horizon distinguish "rolled off" (410 Gone, the ring
// evicted it) from "never had it" (404, the server's history simply
// does not reach back that far).
//
// Independently of the ring, every Load diffs the outgoing snapshot's
// flat relationship tables against the incoming ones (snapshot.Diff, a
// linear two-pointer sweep) and appends the resulting change events to
// a bounded in-memory journal, served as GET /v1/changes?since=<gen>
// with whole-batch cursor pagination. The journal carries no
// timestamps: replaying the same feed twice yields byte-identical
// change sequences, which the scenario matrix's sixth invariant
// enforces.

import (
	"net/http"
	"strconv"
	"time"

	"hybridrel/internal/snapshot"
)

// Journal bounds: trimming starts once either is exceeded; the newest
// batch is always retained whole.
const (
	// JournalMaxBatches caps the number of retained change batches
	// (one batch per snapshot install that changed anything).
	JournalMaxBatches = 512
	// JournalMaxEvents caps the total change events retained across
	// all batches.
	JournalMaxEvents = 1 << 16
)

// DefaultChangeLimit and MaxChangeLimit bound /v1/changes pagination.
// The limit counts events, not batches; batches are never split, so a
// page may exceed the limit by at most one batch.
const (
	DefaultChangeLimit = 1000
	MaxChangeLimit     = 10000
)

// changeBatch is the change set of one snapshot install.
type changeBatch struct {
	generation uint64
	changes    []snapshot.Change
}

// changeJournal is the bounded change-event log. Guarded by the
// server's histMu; batch change slices are immutable once appended, so
// handlers may marshal them outside the lock.
type changeJournal struct {
	batches []changeBatch
	events  int
	// trimmedThrough is the highest generation evicted from the
	// journal; a cursor pointing below it has lost events (410 Gone).
	trimmedThrough uint64
}

func (j *changeJournal) append(gen uint64, cs []snapshot.Change) {
	if len(cs) == 0 {
		return // quiet installs leave no batch; cursors skip past them
	}
	j.batches = append(j.batches, changeBatch{generation: gen, changes: cs})
	j.events += len(cs)
	for len(j.batches) > 1 &&
		(len(j.batches) > JournalMaxBatches || j.events > JournalMaxEvents) {
		j.trimmedThrough = j.batches[0].generation
		j.events -= len(j.batches[0].changes)
		j.batches[0] = changeBatch{} // release the evicted change slice
		j.batches = j.batches[1:]
	}
}

// WithHistory keeps a ring of the last n installed snapshots (their
// states, really — time-travel answers use the same snapshot index
// views as live queries) and enables ?at= time-travel on the read
// endpoints. n <= 0 disables history, the default.
func WithHistory(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.historyDepth = n
		}
	}
}

// pushHistory appends the freshly-installed state to the ring,
// evicting the oldest past the configured depth. Each ring slot holds
// its own reference on the state, released at eviction, so time-travel
// reads of an mmap-backed snapshot stay valid for as long as the ring
// retains it. Caller holds histMu.
func (s *Server) pushHistory(st *state) {
	if s.historyDepth <= 0 {
		return
	}
	st.ref()
	s.history = append(s.history, st)
	if len(s.history) > s.historyDepth {
		s.evicted = true
		drop := len(s.history) - s.historyDepth
		for _, old := range s.history[:drop] {
			old.release()
		}
		n := copy(s.history, s.history[drop:])
		for i := n; i < len(s.history); i++ {
			s.history[i] = nil
		}
		s.history = s.history[:n]
	}
}

// parseAtTime parses the ?at= parameter: RFC 3339 or integer unix
// seconds.
func parseAtTime(v string) (time.Time, error) {
	if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Unix(sec, 0), nil
	}
	return time.Parse(time.RFC3339, v)
}

// stateAt resolves the state a read request should answer from: the
// current one normally, or — given ?at=T with history enabled — the
// newest ring entry not younger than T. The returned state carries a
// reference the caller must release. On failure it writes the error
// response and returns nil.
func (s *Server) stateAt(w http.ResponseWriter, r *http.Request) *state {
	v := queryValue(r.URL.RawQuery, "at")
	if v == "" {
		return s.loadedState(w)
	}
	if s.historyDepth <= 0 {
		writeError(w, http.StatusBadRequest,
			"time travel is disabled: server started without snapshot history")
		return nil
	}
	t, err := parseAtTime(v)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			"invalid at %q (want RFC 3339 or unix seconds)", v)
		return nil
	}
	s.histMu.Lock()
	var found *state
	for i := len(s.history) - 1; i >= 0; i-- {
		if !s.history[i].loadedAt.After(t) {
			found = s.history[i]
			break
		}
	}
	if found != nil {
		// The ring slot's reference keeps found alive while histMu is
		// held (eviction also runs under histMu), so an unconditional
		// ref — rather than the retain CAS loop — is sound here.
		found.ref()
	}
	evicted := s.evicted
	empty := len(s.history) == 0
	s.histMu.Unlock()
	if found != nil {
		return found
	}
	// Every retained snapshot is younger than T. If the ring ever
	// evicted, the answer existed once and rolled off: 410. Otherwise
	// the server simply has no data that old: 404.
	if evicted {
		writeError(w, http.StatusGone,
			"snapshot history horizon passed %s (ring keeps the last %d)", v, s.historyDepth)
		return nil
	}
	if empty {
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded yet")
		return nil
	}
	writeError(w, http.StatusNotFound, "no snapshot as old as %s", v)
	return nil
}

// handleChanges serves GET /v1/changes?since=<generation>&limit=<n>:
// the relationship-change batches recorded after generation `since`,
// whole batches at a time, oldest first, until the event budget is
// spent. The response's `next` is the cursor for the following page.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since %q", v)
			return
		}
		since = n
	}
	limit := DefaultChangeLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		limit = min(n, MaxChangeLimit)
	}

	s.histMu.Lock()
	trimmed := s.journal.trimmedThrough
	var page []changeBatch
	hasMore := false
	if since >= trimmed {
		events := 0
		for _, b := range s.journal.batches {
			if b.generation <= since {
				continue
			}
			if events >= limit {
				hasMore = true
				break
			}
			// Batch slices are immutable once appended; the header copy
			// is all the page needs.
			page = append(page, b)
			events += len(b.changes)
		}
	}
	s.histMu.Unlock()

	if since < trimmed {
		writeError(w, http.StatusGone,
			"change journal horizon passed generation %d (oldest retained is past %d)",
			since, trimmed)
		return
	}
	resp := ChangesResponse{
		Since:   since,
		Next:    since,
		Current: s.generation.Load(),
		HasMore: hasMore,
		Batches: make([]ChangeBatchJSON, 0, len(page)),
	}
	for _, b := range page {
		resp.Batches = append(resp.Batches, changeBatchJSON(b))
		resp.Next = b.generation
	}
	writeJSON(w, http.StatusOK, resp)
}

func changeBatchJSON(b changeBatch) ChangeBatchJSON {
	out := ChangeBatchJSON{
		Generation: b.generation,
		Changes:    make([]ChangeJSON, len(b.changes)),
	}
	for i, c := range b.changes {
		out.Changes[i] = ChangeJSON{
			Plane: planeLabel(c.Plane),
			Kind:  c.Kind.String(),
			A:     uint32(c.Key.Lo),
			B:     uint32(c.Key.Hi),
			From:  c.From.String(),
			To:    c.To.String(),
		}
	}
	return out
}
