package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
)

// This file is the rebalance orchestrator: live join/leave with
// minimal key movement, partition migration by snapshot-ship plus
// WAL-tail catch-up, and the atomic ownership cutover.
//
// Migration state machine, per moving partition:
//
//	staged    the gainer fetched a donor's consistent snapshot (rows +
//	          base-row count + last ingest sequence) ahead of the view
//	          change; ingest keeps flowing to the old owners
//	installed the gainer applied the new view: the staged rows became a
//	          live partition (WAL reset + re-seeded with the ingested
//	          tail), the member pointer swapped — new requests route to
//	          the new owners
//	synced    the gainer drained the cutover delta: it fetched the WAL
//	          tail the donors accepted between staging and cutover,
//	          finishing when a donor serves a FENCED tail at the new
//	          epoch with nothing missing
//	retired   a losing owner moved the partition out of its serving
//	          maps; the retired copy keeps answering /v1/replicate,
//	          /v1/walfetch, /v1/partsnap and /v1/digest until the node
//	          closes, so in-flight acks and late catch-ups never dangle
//
// The coordinator (whichever member received /v1/join or /v1/leave)
// serialises concurrent membership changes behind rebalanceMu; view
// installs themselves serialise behind viewMu, so a node can be the
// coordinator of one change while adopting another's.

// JoinRequest is the POST /v1/join body: a new member's identity.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// JoinResponse reports the view a join/leave produced and how many
// partition replicas moved to new owners.
type JoinResponse struct {
	View  View `json:"view"`
	Moved int  `json:"moved"`
}

// LeaveRequest is the POST /v1/leave body: the member to retire.
type LeaveRequest struct {
	ID string `json:"id"`
}

// MigratePart names one partition a gainer must stage and the donor
// URLs that hold it (primary first).
type MigratePart struct {
	Part   int      `json:"part"`
	Donors []string `json:"donors"`
}

// MigrateRequest is the coordinator→gainer POST /v1/migrate body: the
// pending view and the partitions the gainer acquires under it.
type MigrateRequest struct {
	View  View          `json:"view"`
	Parts []MigratePart `json:"parts"`
}

// MigrateResponse reports how many partitions the gainer staged.
type MigrateResponse struct {
	Staged int   `json:"staged"`
	Epoch  int64 `json:"epoch"`
}

// PartSnapRequest is the POST /v1/partsnap body: one partition's full
// snapshot for staging or repair.
type PartSnapRequest struct {
	Part  int   `json:"part"`
	Epoch int64 `json:"epoch,omitempty"`
}

// PartSnapResponse is a consistent point-in-time copy of one
// partition: every row in insertion order (base rows first, then
// ingested rows in sequence order), how many of them are base rows,
// and the last applied ingest sequence. BaseLen matters for WAL
// re-seeding: a restarted node re-lays base rows deterministically
// from the bulk dataset, so only Rows[BaseLen:] belong in the log.
type PartSnapResponse struct {
	Part    int       `json:"part"`
	LastSeq uint64    `json:"last_seq"`
	BaseLen int       `json:"base_len"`
	Rows    []WireRow `json:"rows"`
	Epoch   int64     `json:"epoch,omitempty"`
}

// RebalanceStatus is the GET /v1/rebalance body and the "rebalance"
// block of /v1/status: where this node stands in the elastic plane.
type RebalanceStatus struct {
	Epoch        int64 `json:"epoch"`
	Staged       int   `json:"staged"`
	Retired      int   `json:"retired"`
	MovedParts   int64 `json:"moved_parts"`
	LastChangeMS int64 `json:"last_change_ms"`
}

// stagedPart is a partition snapshot shipped ahead of a view change.
type stagedPart struct {
	rows    []storage.Row
	baseLen int
	lastSeq uint64
	donors  []string
	epoch   int64
}

// retiredPart is a partition this node no longer owns but retains as a
// donor and ack sink until the node closes: late replicate deliveries
// from a primary that has not yet adopted the view still land (and
// ack), and gainers can still fetch snapshots, tails and digests.
type retiredPart struct {
	mu      sync.Mutex
	rows    []storage.Row
	baseLen int
	lastSeq uint64
	wal     *ingest.Log
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
		return
	}
	if req.ID == "" || req.URL == "" {
		serve.WriteError(w, fmt.Errorf("%w: join needs id and url", query.ErrBadQuery))
		return
	}
	resp, err := n.orchestrate(func(cur View) (View, error) {
		if cur.has(req.ID) {
			return View{}, fmt.Errorf("dist: member %q already in the view", req.ID)
		}
		for _, m := range cur.Members {
			// A lone node booted without a peer list has no URL the
			// newcomer could reach it at.
			if m.URL == "" {
				return View{}, fmt.Errorf("dist: member %q has no URL; boot it with one to grow its cluster", m.ID)
			}
		}
		nv := cur.clone()
		nv.Epoch++
		nv.Members = append(nv.Members, Member{ID: req.ID, URL: req.URL})
		nv.normalize()
		return nv, nil
	})
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
		return
	}
	if req.ID == "" {
		serve.WriteError(w, fmt.Errorf("%w: leave needs id", query.ErrBadQuery))
		return
	}
	resp, err := n.orchestrate(func(cur View) (View, error) {
		if !cur.has(req.ID) {
			return View{}, fmt.Errorf("dist: member %q not in the view", req.ID)
		}
		if len(cur.Members) == 1 {
			return View{}, fmt.Errorf("dist: refusing to retire the last member")
		}
		nv := View{Epoch: cur.Epoch + 1}
		for _, m := range cur.Members {
			if m.ID != req.ID {
				nv.Members = append(nv.Members, m)
			}
		}
		return nv, nil
	})
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (n *Node) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, n.RebalanceStatus())
}

// RebalanceStatus snapshots the node's elastic-plane progress.
func (n *Node) RebalanceStatus() RebalanceStatus {
	n.stageMu.Lock()
	staged := len(n.staged)
	n.stageMu.Unlock()
	n.retireMu.Lock()
	retired := len(n.retired)
	n.retireMu.Unlock()
	return RebalanceStatus{
		Epoch:        n.epoch(),
		Staged:       staged,
		Retired:      retired,
		MovedParts:   n.movesTotal.Load(),
		LastChangeMS: n.lastChange.Load(),
	}
}

// orchestrate runs one membership change end to end: build the next
// view, diff placement, stage every moving partition on its gainer,
// then cut over by pushing the view to the union of old and new
// members. Staging failures abort with NO view change — the staged
// copies are harmless garbage the gainers drop on their next install.
func (n *Node) orchestrate(next func(View) (View, error)) (JoinResponse, error) {
	if !n.ingestGate() {
		return JoinResponse{}, errNodeClosing
	}
	defer n.closeDone()
	n.rebalanceMu.Lock()
	defer n.rebalanceMu.Unlock()

	old := n.members()
	nv, err := next(old.view)
	if err != nil {
		return JoinResponse{}, err
	}
	nms := newMemberState(nv, n.cfg.VNodes, n.cfg.Partitions, n.cfg.Replicas)

	// Diff placement per partition: every new owner that was not an old
	// owner must stage the partition from the old owners (primary
	// first). A single join or leave moves at most ~1/N of partitions
	// (the ring's minimal-movement property, proven in ring_test.go).
	gainsByNode := make(map[string][]MigratePart)
	moved := 0
	for p := 0; p < n.cfg.Partitions; p++ {
		oldOwners := old.partOwners(p)
		newOwners := nms.partOwners(p)
		var donors []string
		for _, o := range oldOwners {
			if u := old.urls[o]; u != "" {
				donors = append(donors, u)
			}
		}
		for _, o := range newOwners {
			if containsStr(oldOwners, o) {
				continue
			}
			gainsByNode[o] = append(gainsByNode[o], MigratePart{Part: p, Donors: donors})
			moved++
		}
	}

	// Stage concurrently per gainer; abort the change on any failure.
	type stageRes struct {
		node string
		err  error
	}
	resc := make(chan stageRes, len(gainsByNode))
	for node, parts := range gainsByNode {
		go func(node string, parts []MigratePart) {
			var err error
			if node == n.id {
				err = n.stageParts(nv, parts)
			} else {
				err = n.sendMigrate(nms.urls[node], nv, parts)
			}
			resc <- stageRes{node: node, err: err}
		}(node, parts)
	}
	for range gainsByNode {
		if r := <-resc; r.err != nil {
			return JoinResponse{}, fmt.Errorf("dist: stage on %s failed (view unchanged): %w", r.node, r.err)
		}
	}

	// Cutover: adopt the view locally first (direct call — POSTing to
	// ourselves would deadlock behind our own handler limits), then push
	// it to every other old or new member. Push failures are logged, not
	// fatal: the straggler converges from the epoch stamped on its next
	// RPC.
	if err := n.applyView(nv); err != nil {
		return JoinResponse{}, fmt.Errorf("dist: apply view locally: %w", err)
	}
	targets := make(map[string]string) // id -> url
	for _, m := range old.view.Members {
		targets[m.ID] = m.URL
	}
	for _, m := range nv.Members {
		targets[m.ID] = m.URL
	}
	delete(targets, n.id)
	type pushRes struct {
		id  string
		err error
	}
	pushc := make(chan pushRes, len(targets))
	for id, url := range targets {
		go func(id, url string) {
			_, err := n.pushView(url, nv)
			pushc <- pushRes{id: id, err: err}
		}(id, url)
	}
	for range targets {
		if r := <-pushc; r.err != nil {
			n.logger.Warn("view push failed; member will converge via epoch stamps",
				"peer", r.id, "epoch", nv.Epoch, "err", r.err)
		}
	}
	n.movesTotal.Add(int64(moved))
	n.logger.Info("membership change applied",
		"epoch", nv.Epoch, "members", len(nv.Members), "moved", moved)
	return JoinResponse{View: nv, Moved: moved}, nil
}

// sendMigrate asks a gainer to stage parts for the pending view.
func (n *Node) sendMigrate(url string, v View, parts []MigratePart) error {
	if url == "" {
		return fmt.Errorf("dist: gainer has no URL")
	}
	body, err := json.Marshal(MigrateRequest{View: v, Parts: parts})
	if err != nil {
		return err
	}
	resp, err := n.hc.Post(url+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: migrate to %s: HTTP %d: %w", url, resp.StatusCode, errPeerResponded)
	}
	return nil
}

func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !n.ingestGate() {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": errNodeClosing.Error()})
		return
	}
	defer n.closeDone()
	var req MigrateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
		return
	}
	if err := n.stageParts(req.View, req.Parts); err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, MigrateResponse{Staged: len(req.Parts), Epoch: n.epoch()})
}

// stageParts fetches each listed partition's snapshot from the first
// reachable donor and parks it for the coming view. Staging never
// touches the serving maps: until the view lands, the old owners keep
// serving and ingesting.
func (n *Node) stageParts(v View, parts []MigratePart) error {
	for _, mp := range parts {
		st, err := n.stageOne(v, mp)
		if err != nil {
			return err
		}
		n.stageMu.Lock()
		n.staged[mp.Part] = st
		n.stageMu.Unlock()
	}
	return nil
}

func (n *Node) stageOne(v View, mp MigratePart) (*stagedPart, error) {
	var lastErr error
	for _, durl := range mp.Donors {
		snap, err := n.fetchPartSnap(durl, mp.Part)
		if err != nil {
			lastErr = err
			continue
		}
		return &stagedPart{
			rows:    wireToRows(snap.Rows),
			baseLen: snap.BaseLen,
			lastSeq: snap.LastSeq,
			donors:  mp.Donors,
			epoch:   v.Epoch,
		}, nil
	}
	return nil, fmt.Errorf("dist: stage partition %d: no donor reachable: %w", mp.Part, lastErr)
}

// fetchPartSnap fetches one partition's snapshot from a donor.
func (n *Node) fetchPartSnap(url string, p int) (*PartSnapResponse, error) {
	body, err := json.Marshal(PartSnapRequest{Part: p, Epoch: n.epoch()})
	if err != nil {
		return nil, err
	}
	resp, err := n.hc.Post(url+"/v1/partsnap", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: partsnap %d from %s: HTTP %d: %w",
			p, url, resp.StatusCode, errPeerResponded)
	}
	var out PartSnapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	n.noteEpoch(out.Epoch)
	return &out, nil
}

func (n *Node) handlePartSnap(w http.ResponseWriter, r *http.Request) {
	var req PartSnapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
		return
	}
	n.noteEpoch(req.Epoch)
	// Live partition: rows, baseLen and lastSeq are mutated together
	// under n.mu, so one read lock yields a consistent snapshot.
	n.mu.RLock()
	rows, held := n.parts[req.Part]
	baseLen, lastSeq := n.baseLen[req.Part], n.lastSeq[req.Part]
	if held {
		rows = rows[:len(rows):len(rows)]
	}
	n.mu.RUnlock()
	if !held {
		if rp := n.retiredPartOf(req.Part); rp != nil {
			rp.mu.Lock()
			rows = rp.rows[:len(rp.rows):len(rp.rows)]
			baseLen, lastSeq = rp.baseLen, rp.lastSeq
			rp.mu.Unlock()
			held = true
		}
	}
	if !held {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("dist: node %s does not hold partition %d", n.id, req.Part),
		})
		return
	}
	serve.WriteJSON(w, http.StatusOK, PartSnapResponse{
		Part: req.Part, LastSeq: lastSeq, BaseLen: baseLen,
		Rows: rowsToWire(rows), Epoch: n.epoch(),
	})
}

// retiredPartOf returns the retired copy of p, if any.
func (n *Node) retiredPartOf(p int) *retiredPart {
	n.retireMu.Lock()
	defer n.retireMu.Unlock()
	return n.retired[p]
}

// applyView installs a newer membership view: stage-installed gains
// become live partitions, the member pointer swaps (new requests route
// on the new ring), lost partitions retire, and each gain drains its
// cutover delta from the donors. Serialised behind viewMu; an equal or
// older epoch is a no-op.
func (n *Node) applyView(nv View) error {
	if !n.ingestGate() {
		return errNodeClosing
	}
	defer n.closeDone()
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	cur := n.members()
	if nv.Epoch <= cur.view.Epoch {
		return nil
	}
	nv = nv.clone()
	nv.normalize()
	nms := newMemberState(nv, n.cfg.VNodes, n.cfg.Partitions, n.cfg.Replicas)

	// Diff this node's holdings against the new placement.
	var gains, losses []int
	selfIn := nv.has(n.id)
	for p := 0; p < n.cfg.Partitions; p++ {
		owned := selfIn && containsStr(nms.partOwners(p), n.id)
		n.mu.RLock()
		_, held := n.parts[p]
		n.mu.RUnlock()
		if owned && !held {
			gains = append(gains, p)
		}
		if !owned && held {
			losses = append(losses, p)
		}
	}
	sort.Ints(gains)
	sort.Ints(losses)

	// Install every gain while holding its (new) partition lock: a
	// replicate or ingest racing the cutover blocks on the lock and
	// lands after the install, in sequence.
	type pendingSync struct {
		part   int
		mu     *sync.Mutex
		donors []string
	}
	var pending []pendingSync
	for _, p := range gains {
		st := n.takeStaged(p, cur)
		mu := &sync.Mutex{}
		mu.Lock()
		n.mu.Lock()
		n.partMu[p] = mu
		n.mu.Unlock()
		if err := n.installPartitionLocked(p, st); err != nil {
			n.mu.Lock()
			delete(n.partMu, p)
			n.mu.Unlock()
			mu.Unlock()
			n.logger.Warn("partition install failed", "part", p, "err", err)
			continue
		}
		pending = append(pending, pendingSync{part: p, mu: mu, donors: st.donors})
	}

	// The atomic cutover: requests arriving after this line route,
	// forward and sequence on the new view.
	n.member.Store(nms)
	n.lastChange.Store(time.Now().UnixMilli())

	// Retire losses: out of the serving maps (gatherLocal and the ring
	// agree the partition lives elsewhere) but retained as a donor and
	// ack sink until Close.
	for _, p := range losses {
		n.retirePartition(p)
	}

	// Drain each gain's cutover delta, releasing its lock as it syncs.
	for _, ps := range pending {
		n.finalSyncLocked(ps.part, ps.donors, nv.Epoch)
		ps.mu.Unlock()
	}
	n.logger.Info("view applied", "epoch", nv.Epoch, "members", len(nv.Members),
		"gained", len(gains), "retired", len(losses))
	return nil
}

// takeStaged claims partition p's staged snapshot for installation,
// falling back to a retired copy (a re-gain promotes it) and, as the
// self-heal of last resort for a member that never saw the migrate
// RPC, an inline stage from the old view's holders.
func (n *Node) takeStaged(p int, old *memberState) *stagedPart {
	n.stageMu.Lock()
	st := n.staged[p]
	delete(n.staged, p)
	n.stageMu.Unlock()
	if st != nil {
		return st
	}
	n.retireMu.Lock()
	rp := n.retired[p]
	delete(n.retired, p)
	n.retireMu.Unlock()
	if rp != nil {
		rp.mu.Lock()
		st = &stagedPart{rows: rp.rows, baseLen: rp.baseLen, lastSeq: rp.lastSeq}
		if rp.wal != nil {
			// installPartitionLocked reopens the same WAL directory;
			// release this handle first.
			_ = rp.wal.Close()
		}
		rp.mu.Unlock()
		return st
	}
	var donors []string
	for _, o := range old.partOwners(p) {
		if o == n.id {
			continue
		}
		if u := old.urls[o]; u != "" {
			donors = append(donors, u)
		}
	}
	if len(donors) > 0 {
		if st, err := n.stageOne(View{Epoch: n.epoch() + 1}, MigratePart{Part: p, Donors: donors}); err == nil {
			return st
		} else {
			n.logger.Warn("inline stage failed; installing empty partition",
				"part", p, "err", err)
		}
	}
	return &stagedPart{donors: donors}
}

// installPartitionLocked makes a staged snapshot the live partition
// (the caller holds the partition's lock). Mirrors Load: rows land in
// the partition map and the columnar mirror WITHOUT AbsorbRows — the
// cluster's models already absorbed these rows when they were first
// ingested on the old owners; absorbing again would double-count.
// With durability on, the WAL is reset and re-seeded with only the
// ingested tail (rows[baseLen:]) at lastSeq: a restart re-lays base
// rows deterministically from the bulk dataset, so storing them in the
// log would replay them twice.
func (n *Node) installPartitionLocked(p int, st *stagedPart) error {
	var l *ingest.Log
	if n.cfg.DataDir != "" {
		n.mu.RLock()
		l = n.wals[p]
		n.mu.RUnlock()
		if l == nil {
			var err error
			l, err = ingest.Open(filepath.Join(n.cfg.DataDir, fmt.Sprintf("part-%d", p)),
				ingest.Options{SyncEvery: n.cfg.WALSyncEvery})
			if err != nil {
				return fmt.Errorf("dist: install partition %d: %w", p, err)
			}
		}
		if err := l.Reset(); err != nil {
			return fmt.Errorf("dist: install partition %d: %w", p, err)
		}
		if st.lastSeq > 0 {
			tail := st.rows
			if st.baseLen < len(tail) {
				tail = tail[st.baseLen:]
			} else {
				tail = nil
			}
			if err := l.Append(st.lastSeq, tail); err != nil {
				return fmt.Errorf("dist: install partition %d: %w", p, err)
			}
		}
	}
	rows := st.rows[:len(st.rows):len(st.rows)]
	cs := storage.NewColStore(-1)
	cs.Append(rows...)
	n.mu.Lock()
	prev := int64(len(n.parts[p]))
	n.parts[p] = rows
	n.cols[p] = cs
	n.baseLen[p] = st.baseLen
	n.lastSeq[p] = st.lastSeq
	n.rowsHeld += int64(len(rows)) - prev
	if l != nil {
		n.wals[p] = l
	}
	n.version++
	ver := n.version
	n.mu.Unlock()
	n.publishAbsorbed(ver)
	return nil
}

// retirePartition moves p out of the serving maps into the retired
// set. The retired copy is documented as retained-until-Close: it is
// small (one partition's rows), keeps late replicate acks and catch-up
// fetches working while the old primary converges, and the whole node
// is usually shut down shortly after a graceful leave anyway.
func (n *Node) retirePartition(p int) {
	mu := n.partLock(p)
	if mu == nil {
		return
	}
	mu.Lock()
	n.mu.Lock()
	rows := n.parts[p]
	rp := &retiredPart{
		rows:    rows,
		baseLen: n.baseLen[p],
		lastSeq: n.lastSeq[p],
		wal:     n.wals[p],
	}
	delete(n.parts, p)
	delete(n.cols, p)
	delete(n.lastSeq, p)
	delete(n.baseLen, p)
	delete(n.wals, p)
	delete(n.partMu, p)
	n.rowsHeld -= int64(len(rows))
	n.version++
	ver := n.version
	n.mu.Unlock()
	mu.Unlock()
	n.retireMu.Lock()
	n.retired[p] = rp
	n.retireMu.Unlock()
	// Cached answers may cover the departed rows: expire them.
	n.publishAbsorbed(ver)
}

// finalSyncLocked drains partition p's cutover delta (the caller holds
// p's partition lock): every batch the donors sequenced between the
// staging snapshot and the donors adopting the new view. It finishes
// when a donor serves a FENCED tail at (or past) the new epoch showing
// nothing missing — fenced means the donor held its partition lock, so
// its LastSeq cannot advance behind our back; at the new epoch the
// donor also no longer sequences fresh batches for p. On timeout it
// logs and returns: anti-entropy and gap-healing replication converge
// the remainder.
func (n *Node) finalSyncLocked(p int, donors []string, newEpoch int64) {
	deadline := time.Now().Add(3 * n.cfg.Timeout)
	self := n.members().urls[n.id]
	for time.Now().Before(deadline) {
		progress := false
		for _, durl := range donors {
			if durl == "" || durl == self {
				continue
			}
			resp, err := n.fetchTail(durl, p, n.partSeqLocked(p), 0)
			if err != nil || resp == nil {
				continue
			}
			n.noteEpoch(resp.Epoch)
			if resp.NoWAL {
				// Memory-only donor: no tail to fetch. If it is ahead,
				// re-stage wholesale from its snapshot.
				if resp.LastSeq > n.partSeqLocked(p) {
					if snap, err := n.fetchPartSnap(durl, p); err == nil && snap.LastSeq > n.partSeqLocked(p) {
						st := &stagedPart{rows: wireToRows(snap.Rows),
							baseLen: snap.BaseLen, lastSeq: snap.LastSeq}
						if err := n.installPartitionLocked(p, st); err == nil {
							progress = true
						}
					}
				}
			} else {
				for _, e := range resp.Entries {
					cur := n.partSeqLocked(p)
					if e.Seq <= cur {
						continue
					}
					if e.Seq != cur+1 {
						break
					}
					if err := n.applyBatch(p, e.Seq, wireToRows(e.Rows), true, nil); err != nil {
						n.logger.Warn("final sync apply failed", "part", p, "seq", e.Seq, "err", err)
						break
					}
					progress = true
				}
			}
			if resp.Fenced && resp.Epoch >= newEpoch && resp.LastSeq <= n.partSeqLocked(p) && !resp.Truncated {
				return
			}
		}
		if !progress {
			time.Sleep(5 * time.Millisecond)
		}
	}
	n.logger.Warn("final sync timed out; anti-entropy will converge the remainder",
		"part", p, "epoch", newEpoch)
}

// containsStr reports whether s contains v.
func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
