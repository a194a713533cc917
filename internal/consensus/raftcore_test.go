package consensus

import (
	"reflect"
	"testing"

	"fabricsharp/internal/protocol"
)

// newCore builds a three-member core for id with a persist recorder.
func newCore(t *testing.T, id string) *RaftCore {
	t.Helper()
	c, err := NewRaftCore(id, []string{"a", "b", "c"})
	if err != nil {
		t.Fatalf("NewRaftCore: %v", err)
	}
	return c
}

func TestRaftCoreMembershipValidation(t *testing.T) {
	if _, err := NewRaftCore("z", []string{"a", "b"}); err == nil {
		t.Fatal("expected error for id outside cluster")
	}
	if _, err := NewRaftCore("a", nil); err == nil {
		t.Fatal("expected error for empty cluster")
	}
}

func TestRaftCoreSingleNodeElectsImmediately(t *testing.T) {
	c, err := NewRaftCore("solo", []string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	c.StartElection()
	if c.Role() != RoleLeader {
		t.Fatalf("single-member cluster should self-elect, got %s", c.Role())
	}
	idx, err := c.Append(Envelope{SubmittedBy: "client"})
	if err != nil {
		t.Fatal(err)
	}
	if c.CommitIndex() != idx {
		t.Fatalf("single-member commit should be immediate: commit=%d idx=%d", c.CommitIndex(), idx)
	}
}

func TestRaftCoreElectionQuorum(t *testing.T) {
	a := newCore(t, "a")
	b := newCore(t, "b")

	req := a.StartElection()
	if a.Role() != RoleCandidate {
		t.Fatalf("expected candidate, got %s", a.Role())
	}
	if req.Term != 1 || req.CandidateID != "a" {
		t.Fatalf("unexpected vote request %+v", req)
	}

	resp := b.HandleVote(req)
	if !resp.Granted {
		t.Fatalf("fresh follower should grant: %+v", resp)
	}
	if won := a.HandleVoteResponse(resp); !won {
		t.Fatal("two votes of three should win the election")
	}
	if a.Role() != RoleLeader || a.LeaderID() != "a" {
		t.Fatalf("expected leader a, got %s leader=%q", a.Role(), a.LeaderID())
	}
	// Leader appended its term-start no-op.
	if a.LastIndex() != 1 || a.Entry(1).Term != 1 {
		t.Fatalf("expected no-op entry at index 1 term 1, got last=%d", a.LastIndex())
	}
}

func TestRaftCoreNoDoubleVotePerTerm(t *testing.T) {
	b := newCore(t, "b")
	r1 := b.HandleVote(VoteRequest{Term: 1, CandidateID: "a"})
	if !r1.Granted {
		t.Fatal("first vote should be granted")
	}
	r2 := b.HandleVote(VoteRequest{Term: 1, CandidateID: "c"})
	if r2.Granted {
		t.Fatal("must not vote twice in one term")
	}
	// Same candidate retransmitting is re-granted (idempotent).
	r3 := b.HandleVote(VoteRequest{Term: 1, CandidateID: "a"})
	if !r3.Granted {
		t.Fatal("retransmitted request from the voted-for candidate should be granted")
	}
	// A later term resets the vote.
	r4 := b.HandleVote(VoteRequest{Term: 2, CandidateID: "c"})
	if !r4.Granted {
		t.Fatal("new term should allow a fresh vote")
	}
}

func TestRaftCoreVoteRejectsStaleLog(t *testing.T) {
	b := newCore(t, "b")
	// b holds two entries from term 1.
	b.HandleAppend(AppendRequest{Term: 1, LeaderID: "a", Entries: []LogEntry{
		{Term: 1}, {Term: 1},
	}})
	// Candidate with an empty log is behind: rejected despite higher term.
	resp := b.HandleVote(VoteRequest{Term: 2, CandidateID: "c", LastIndex: 0, LastTerm: 0})
	if resp.Granted {
		t.Fatal("must not elect a candidate missing entries")
	}
	// The term was still adopted (stepDown), so a up-to-date candidate in the
	// same term can now win the vote.
	resp = b.HandleVote(VoteRequest{Term: 2, CandidateID: "a", LastIndex: 2, LastTerm: 1})
	if !resp.Granted {
		t.Fatalf("up-to-date candidate should be granted: %+v", resp)
	}
}

func TestRaftCoreVoteLastTermDominatesLength(t *testing.T) {
	b := newCore(t, "b")
	b.HandleAppend(AppendRequest{Term: 1, LeaderID: "a", Entries: []LogEntry{
		{Term: 1}, {Term: 1}, {Term: 1},
	}})
	// Shorter log but higher last term is MORE up to date.
	resp := b.HandleVote(VoteRequest{Term: 3, CandidateID: "c", LastIndex: 1, LastTerm: 2})
	if !resp.Granted {
		t.Fatal("higher last term should dominate log length")
	}
}

// electLeader runs a full two-of-three election and returns leader a with
// follower b attached at matching state.
func electLeader(t *testing.T) (a, b *RaftCore) {
	t.Helper()
	a, b = newCore(t, "a"), newCore(t, "b")
	if won := a.HandleVoteResponse(b.HandleVote(a.StartElection())); !won {
		t.Fatal("election should succeed")
	}
	return a, b
}

// replicate drains one AppendEntries round trip from leader to follower and
// feeds the response back. Returns the follower's response.
func replicate(a, b *RaftCore) AppendResponse {
	resp := b.HandleAppend(a.AppendRequestFor("b"))
	a.HandleAppendResponse(resp)
	return resp
}

func TestRaftCoreReplicationAndCommit(t *testing.T) {
	a, b := electLeader(t)
	idx, err := a.Append(Envelope{SubmittedBy: "client"})
	if err != nil {
		t.Fatal(err)
	}
	if a.CommitIndex() != 0 {
		t.Fatalf("nothing should commit before a follower acks, commit=%d", a.CommitIndex())
	}
	resp := replicate(a, b)
	if !resp.Success {
		t.Fatalf("append should succeed: %+v", resp)
	}
	if a.CommitIndex() != idx {
		t.Fatalf("majority ack should commit %d, commit=%d", idx, a.CommitIndex())
	}
	// Commit index propagates to the follower on the next round.
	replicate(a, b)
	if b.CommitIndex() != idx {
		t.Fatalf("follower commit should follow leader: %d != %d", b.CommitIndex(), idx)
	}
	if b.Entry(idx).Env.SubmittedBy != "client" {
		t.Fatal("follower replicated wrong entry")
	}
}

func TestRaftCoreFollowerRefusesAppendWithRedirect(t *testing.T) {
	a, b := electLeader(t)
	replicate(a, b) // b learns a is leader
	_, err := b.Append(Envelope{})
	nl, ok := err.(ErrNotLeader)
	if !ok {
		t.Fatalf("expected ErrNotLeader, got %v", err)
	}
	if nl.LeaderID != "a" {
		t.Fatalf("redirect should name the leader, got %q", nl.LeaderID)
	}
}

func TestRaftCoreCatchUpFromEmptyLog(t *testing.T) {
	a, _ := electLeader(t)
	for i := 0; i < 600; i++ { // > maxEntriesPerAppend to force batching
		if _, err := a.Append(Envelope{SubmittedBy: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh replica (a restarted node) joins with an empty log.
	c := newCore(t, "c")
	rounds := 0
	for {
		resp := c.HandleAppend(a.AppendRequestFor("c"))
		a.HandleAppendResponse(resp)
		rounds++
		if rounds > 100 {
			t.Fatal("catch-up did not converge")
		}
		if resp.Success && resp.MatchIndex == a.LastIndex() {
			break
		}
	}
	if c.LastIndex() != a.LastIndex() {
		t.Fatalf("catch-up incomplete: %d != %d", c.LastIndex(), a.LastIndex())
	}
	// The backoff hint makes the first round land at the follower's last
	// index, so catch-up is O(log/batch), not O(log) decrements.
	want := 1 + (int(a.LastIndex())+maxEntriesPerAppend-1)/maxEntriesPerAppend
	if rounds > want+2 {
		t.Fatalf("catch-up took %d rounds, expected about %d", rounds, want)
	}
	// With both followers caught up, everything commits.
	if a.CommitIndex() != a.LastIndex() {
		t.Fatalf("commit should reach the end: %d != %d", a.CommitIndex(), a.LastIndex())
	}
}

func TestRaftCoreConflictTruncation(t *testing.T) {
	// b holds uncommitted entries from a dead leader's term 1.
	b := newCore(t, "b")
	b.HandleAppend(AppendRequest{Term: 1, LeaderID: "x", Entries: []LogEntry{
		{Term: 1, Env: Envelope{SubmittedBy: "stale1"}},
		{Term: 1, Env: Envelope{SubmittedBy: "stale2"}},
	}})
	// New leader in term 3 replicates a different suffix from index 2.
	resp := b.HandleAppend(AppendRequest{
		Term: 3, LeaderID: "a", PrevIndex: 1, PrevTerm: 1,
		Entries: []LogEntry{{Term: 3, Env: Envelope{SubmittedBy: "fresh"}}},
	})
	if !resp.Success {
		t.Fatalf("append should succeed: %+v", resp)
	}
	if b.LastIndex() != 2 || b.Entry(2).Env.SubmittedBy != "fresh" {
		t.Fatalf("conflicting suffix should be replaced, got last=%d", b.LastIndex())
	}
	if b.Entry(1).Env.SubmittedBy != "stale1" {
		t.Fatal("matching prefix must be preserved")
	}
}

func TestRaftCoreDuplicateAppendIsIdempotent(t *testing.T) {
	a, b := electLeader(t)
	if _, err := a.Append(Envelope{SubmittedBy: "once"}); err != nil {
		t.Fatal(err)
	}
	req := a.AppendRequestFor("b")
	r1 := b.HandleAppend(req)
	r2 := b.HandleAppend(req) // retransmitted frame
	if !r1.Success || !r2.Success || r1.MatchIndex != r2.MatchIndex {
		t.Fatalf("duplicate append must be idempotent: %+v vs %+v", r1, r2)
	}
	if b.LastIndex() != a.LastIndex() {
		t.Fatalf("duplicate must not grow the log: %d != %d", b.LastIndex(), a.LastIndex())
	}
}

func TestRaftCoreLogMatchingRejectsGap(t *testing.T) {
	b := newCore(t, "b")
	// Leader assumes b has 5 entries; b is empty.
	resp := b.HandleAppend(AppendRequest{
		Term: 1, LeaderID: "a", PrevIndex: 5, PrevTerm: 1,
		Entries: []LogEntry{{Term: 1}},
	})
	if resp.Success {
		t.Fatal("append beyond the log must be rejected")
	}
	if resp.MatchIndex != 0 {
		t.Fatalf("hint should be the follower's last index 0, got %d", resp.MatchIndex)
	}
}

func TestRaftCoreStaleTermRejected(t *testing.T) {
	b := newCore(t, "b")
	b.HandleVote(VoteRequest{Term: 5, CandidateID: "c"})
	resp := b.HandleAppend(AppendRequest{Term: 3, LeaderID: "a"})
	if resp.Success {
		t.Fatal("stale-term append must be rejected")
	}
	if resp.Term != 5 {
		t.Fatalf("response should carry the newer term 5, got %d", resp.Term)
	}
	vr := b.HandleVote(VoteRequest{Term: 4, CandidateID: "a"})
	if vr.Granted {
		t.Fatal("stale-term vote must be rejected")
	}
}

func TestRaftCoreLeaderStepsDownOnHigherTerm(t *testing.T) {
	a, b := electLeader(t)
	if _, err := a.Append(Envelope{}); err != nil {
		t.Fatal(err)
	}
	// A response carrying a higher term (partition healed elsewhere).
	a.HandleAppendResponse(AppendResponse{From: "c", Term: 9})
	if a.Role() != RoleFollower || a.Term() != 9 {
		t.Fatalf("leader must step down: role=%s term=%d", a.Role(), a.Term())
	}
	if _, err := a.Append(Envelope{}); err == nil {
		t.Fatal("stepped-down leader must refuse appends")
	}
	_ = b
}

func TestRaftCoreCandidateConcedesToLeader(t *testing.T) {
	b := newCore(t, "b")
	b.StartElection() // term 1 candidate
	resp := b.HandleAppend(AppendRequest{Term: 1, LeaderID: "a"})
	if !resp.Success {
		t.Fatalf("same-term heartbeat should be accepted: %+v", resp)
	}
	if b.Role() != RoleFollower || b.LeaderID() != "a" {
		t.Fatalf("candidate must concede: role=%s leader=%q", b.Role(), b.LeaderID())
	}
}

func TestRaftCoreNoCommitOfPriorTermWithoutCurrentEntry(t *testing.T) {
	// The §5.4.2 scenario: a leader must not commit a prior-term entry by
	// counting replicas alone. Here the no-op covers it: once the new term's
	// no-op replicates, everything beneath commits transitively.
	a, b := electLeader(t) // term 1, no-op at index 1
	if _, err := a.Append(Envelope{SubmittedBy: "t1"}); err != nil {
		t.Fatal(err)
	}
	replicate(a, b) // commit through index 2
	// a wins a new election in term 2 without having replicated anything new.
	a.stepDown(1) // simulate losing leadership
	if won := a.HandleVoteResponse(b.HandleVote(a.StartElection())); !won {
		t.Fatal("re-election should succeed")
	}
	// Fresh term's no-op is appended but nothing new committed yet on the
	// new leader beyond what was already durable.
	before := a.CommitIndex()
	resp := replicate(a, b)
	if !resp.Success {
		t.Fatalf("replication should succeed: %+v", resp)
	}
	if a.CommitIndex() <= before {
		t.Fatal("replicating the new-term no-op should advance commit")
	}
	if a.CommitIndex() != a.LastIndex() {
		t.Fatalf("no-op commit should carry prior entries: %d != %d", a.CommitIndex(), a.LastIndex())
	}
}

func TestRaftCorePersistCalledOnTermAndVoteChanges(t *testing.T) {
	b := newCore(t, "b")
	var persisted []struct {
		term uint64
		vote string
	}
	b.Persist = func(term uint64, vote string) {
		persisted = append(persisted, struct {
			term uint64
			vote string
		}{term, vote})
	}
	b.HandleVote(VoteRequest{Term: 2, CandidateID: "a"})
	if len(persisted) == 0 {
		t.Fatal("granting a vote must persist")
	}
	last := persisted[len(persisted)-1]
	if last.term != 2 || last.vote != "a" {
		t.Fatalf("persisted wrong state: %+v", last)
	}
	// Restore round-trips.
	c := newCore(t, "c")
	c.Restore(last.term, last.vote)
	if c.Term() != 2 {
		t.Fatalf("restore: term=%d", c.Term())
	}
	// After restore, c must still refuse a conflicting vote in term 2.
	if r := c.HandleVote(VoteRequest{Term: 2, CandidateID: "b"}); r.Granted {
		t.Fatal("restored vote must prevent double voting")
	}
}

func TestRaftCoreBehindTracksFollowerCursor(t *testing.T) {
	a, b := electLeader(t)
	for i := 0; i < 3; i++ {
		if _, err := a.Append(Envelope{}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Behind("b") {
		t.Fatal("follower with pending entries should be behind")
	}
	replicate(a, b)
	if a.Behind("b") {
		t.Fatal("caught-up follower should not be behind")
	}
}

// sentIndexes lists the log indexes a request carries.
func sentIndexes(req AppendRequest) []uint64 {
	out := make([]uint64, len(req.Entries))
	for i := range req.Entries {
		out[i] = req.PrevIndex + uint64(i) + 1
	}
	return out
}

// TestRaftCoreSendsEachEntryOncePerRoundTrip drives the driver's pattern —
// a request on every submit while earlier ones are still in flight — against
// a lagging follower: every entry is sent exactly once.
func TestRaftCoreSendsEachEntryOncePerRoundTrip(t *testing.T) {
	a, b := electLeader(t)
	sent := map[uint64]int{}
	var inflight []AppendRequest
	for i := 0; i < 300; i++ {
		if _, err := a.Append(Envelope{SubmittedBy: "x"}); err != nil {
			t.Fatal(err)
		}
		req := a.AppendRequestFor("b")
		for _, idx := range sentIndexes(req) {
			sent[idx]++
		}
		inflight = append(inflight, req)
		if i%50 == 49 { // the follower catches up on a batch of frames
			for _, r := range inflight {
				resp := b.HandleAppend(r)
				if !resp.Success {
					t.Fatalf("in-order pipelined append rejected: %+v", resp)
				}
				a.HandleAppendResponse(resp)
			}
			inflight = nil
		}
	}
	for idx := uint64(1); idx <= a.LastIndex(); idx++ {
		if sent[idx] != 1 {
			t.Fatalf("entry %d sent %d times", idx, sent[idx])
		}
	}
	if b.LastIndex() != a.LastIndex() || a.CommitIndex() != a.LastIndex() {
		t.Fatalf("follower %d, leader %d, commit %d", b.LastIndex(), a.LastIndex(), a.CommitIndex())
	}
}

// TestRaftCoreResendsLostAppend drops a request on the way: the follower
// stays silent, so the next Tick rewinds to the match index and the entries
// go out again.
func TestRaftCoreResendsLostAppend(t *testing.T) {
	a, b := electLeader(t)
	replicate(a, b) // no-op replicated: match 1
	a.Tick()
	for i := 0; i < 3; i++ {
		if _, err := a.Append(Envelope{SubmittedBy: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	lost := a.AppendRequestFor("b")
	if len(lost.Entries) != 3 {
		t.Fatalf("expected the 3 new entries, got %d", len(lost.Entries))
	}
	if hb := a.AppendRequestFor("b"); len(hb.Entries) != 0 {
		t.Fatalf("entries resent before any loss was detected: %v", sentIndexes(hb))
	}
	a.Tick() // a heartbeat interval with no answer
	again := a.AppendRequestFor("b")
	if got := sentIndexes(again); len(got) != 3 || got[0] != 2 {
		t.Fatalf("lost entries not resent after a silent tick: %v", got)
	}
	a.HandleAppendResponse(b.HandleAppend(again))
	if b.LastIndex() != a.LastIndex() || a.CommitIndex() != a.LastIndex() {
		t.Fatalf("resend did not land: follower %d, leader %d, commit %d", b.LastIndex(), a.LastIndex(), a.CommitIndex())
	}
	// An acknowledged follower is not rewound by the next tick.
	a.Tick()
	if hb := a.AppendRequestFor("b"); len(hb.Entries) != 0 {
		t.Fatalf("caught-up follower was sent %v", sentIndexes(hb))
	}
}

// TestRaftCoreRewindsRejectedAppend loses one request among several: the
// first rejection rewinds to the follower's hint, the resend fills the gap,
// and rejections of requests sent before the rewind are ignored rather than
// rewinding (and resending) again.
func TestRaftCoreRewindsRejectedAppend(t *testing.T) {
	a, b := electLeader(t)
	replicate(a, b)
	var reqs []AppendRequest
	for i := 0; i < 4; i++ {
		if _, err := a.Append(Envelope{SubmittedBy: "x"}); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, a.AppendRequestFor("b"))
	}
	// reqs[0] (index 2) is dropped; the rest arrive and are rejected.
	r1 := b.HandleAppend(reqs[1])
	r2 := b.HandleAppend(reqs[2])
	if r1.Success || r2.Success {
		t.Fatal("append past a gap accepted")
	}
	a.HandleAppendResponse(r1)
	resend := a.AppendRequestFor("b")
	if got := sentIndexes(resend); len(got) != 4 || got[0] != 2 {
		t.Fatalf("rejection should rewind to index 2 and resend 2..5, got %v", got)
	}
	a.HandleAppendResponse(r2) // answers a request from before the rewind
	if dup := a.AppendRequestFor("b"); len(dup.Entries) != 0 {
		t.Fatalf("stale rejection rewound again: resent %v", sentIndexes(dup))
	}
	a.HandleAppendResponse(b.HandleAppend(reqs[3])) // also stale
	a.HandleAppendResponse(b.HandleAppend(resend))
	if b.LastIndex() != a.LastIndex() || a.CommitIndex() != a.LastIndex() {
		t.Fatalf("follower %d, leader %d, commit %d", b.LastIndex(), a.LastIndex(), a.CommitIndex())
	}
}

// TestRaftCorePrecomputesOnlyAppendedEntries: HandleAppend fills the caches
// of the transactions it appends and leaves skipped duplicates untouched.
func TestRaftCorePrecomputesOnlyAppendedEntries(t *testing.T) {
	b := newCore(t, "b")
	tx := func(id string) *protocol.Transaction {
		return &protocol.Transaction{ID: protocol.TxID(id), RWSet: protocol.RWSet{Reads: []protocol.ReadItem{{Key: "k"}}}}
	}
	first := tx("t1")
	b.HandleAppend(AppendRequest{Term: 1, LeaderID: "a", Entries: []LogEntry{{Term: 1, Env: Envelope{Tx: first}}}})
	dup, fresh := tx("t1"), tx("t2")
	b.HandleAppend(AppendRequest{Term: 1, LeaderID: "a", Entries: []LogEntry{
		{Term: 1, Env: Envelope{Tx: dup}},
		{Term: 1, Env: Envelope{Tx: fresh}},
	}})
	precomputed := func(id string) *protocol.Transaction {
		p := tx(id)
		p.Precompute()
		return p
	}
	if !reflect.DeepEqual(first, precomputed("t1")) {
		t.Error("appended entry not precomputed")
	}
	if !reflect.DeepEqual(dup, tx("t1")) {
		t.Error("skipped duplicate was precomputed")
	}
	if b.Entry(2).Env.Tx != fresh || !reflect.DeepEqual(fresh, precomputed("t2")) {
		t.Error("second appended entry not precomputed")
	}
}
