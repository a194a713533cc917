// Package identity implements the membership service of a permissioned
// blockchain: enrollment of clients, peers and orderers with ed25519 key
// pairs, signature verification, revocation, and the endorsement policies
// (AND / OR / K-of-N expression trees) that the validation phase evaluates.
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"fabricsharp/internal/protocol"
)

// Role classifies a network member (Section 2.1's three node roles).
type Role int

const (
	// RoleClient submits transaction proposals.
	RoleClient Role = iota
	// RolePeer executes and validates transactions.
	RolePeer
	// RoleOrderer sequences transactions into blocks.
	RoleOrderer
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RolePeer:
		return "peer"
	case RoleOrderer:
		return "orderer"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Identity is an enrolled member's credential, holding the private key.
type Identity struct {
	ID   string
	Role Role
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// Sign signs msg with the member's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Public returns the member's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// Service is the trusted membership service ("MSP"). Enrollment hands out
// identities; verification and role lookup use only public material.
type Service struct {
	mu      sync.RWMutex
	members map[string]memberRecord

	// memo remembers signatures this process already verified (or produced
	// through SignAs), so an endorsement seen by several components of one
	// process — the replicas of a standalone orderer, a peer validating its
	// own endorsements — costs one ed25519 verification, not one each.
	memo sigMemo
}

type memberRecord struct {
	role    Role
	pub     ed25519.PublicKey
	revoked bool
}

// NewService creates an empty membership service.
func NewService() *Service {
	return &Service{members: make(map[string]memberRecord), memo: newSigMemo()}
}

// Enroll registers a new member and returns its credential. Member IDs are
// unique; re-enrollment is rejected.
func (s *Service) Enroll(id string, role Role) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: keygen: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.members[id]; exists {
		return nil, fmt.Errorf("identity: %q already enrolled", id)
	}
	s.members[id] = memberRecord{role: role, pub: pub}
	return &Identity{ID: id, Role: role, pub: pub, priv: priv}, nil
}

// Register adds a member whose public key was produced elsewhere — the
// multi-process deployment's key distribution path, where each node process
// derives the cluster's well-known identities with Deterministic and
// registers their public halves. Duplicate registration with the same key
// and role is a no-op; a conflicting one is rejected.
func (s *Service) Register(id string, role Role, pub ed25519.PublicKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, exists := s.members[id]; exists {
		if rec.role == role && string(rec.pub) == string(pub) {
			return nil
		}
		return fmt.Errorf("identity: %q already enrolled with different credentials", id)
	}
	s.members[id] = memberRecord{role: role, pub: pub}
	return nil
}

// Deterministic derives a member's key pair from its name and role alone, so
// every process in a cluster computes identical credentials without any key
// exchange. This is the *development/test MSP* of the process-per-node mode:
// anyone who knows a node's name can derive its private key, so it provides
// wiring fidelity (real ed25519 signatures over real sockets), not
// confidentiality — a production deployment would replace this with
// provisioned keys. The derivation is versioned; changing it is a
// cluster-wide breaking change.
func Deterministic(id string, role Role) *Identity {
	seed := sha256.Sum256([]byte("fabricsharp-dev-msp-v1|" + role.String() + "|" + id))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{
		ID:   id,
		Role: role,
		pub:  priv.Public().(ed25519.PublicKey),
		priv: priv,
	}
}

// Revoke bans a member; its signatures stop verifying. It also forgets
// every remembered verification, so no verdict from before the revocation
// outlives it.
func (s *Service) Revoke(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.members[id]; ok {
		rec.revoked = true
		s.members[id] = rec
	}
	s.memo.reset()
}

// member returns id's record when id is enrolled and not revoked.
func (s *Service) member(id string) (memberRecord, bool) {
	s.mu.RLock()
	rec, ok := s.members[id]
	s.mu.RUnlock()
	return rec, ok && !rec.revoked
}

// RoleOf returns the member's role.
func (s *Service) RoleOf(id string) (Role, bool) {
	rec, ok := s.member(id)
	if !ok {
		return 0, false
	}
	return rec.role, true
}

// Verify checks that sig is member id's signature over msg. It always runs
// the ed25519 check; endorsement checks go through the memo instead.
func (s *Service) Verify(id string, msg, sig []byte) bool {
	rec, ok := s.member(id)
	return ok && ed25519.Verify(rec.pub, msg, sig)
}

// SignAs signs msg with id's key, as id.Sign does, and remembers the
// signature as verified when id is an enrolled, unrevoked member whose
// registered key is id's own — so this process never verifies what it
// signed itself. A credential whose key is not the registered one signs but
// is remembered nothing.
func (s *Service) SignAs(id *Identity, msg []byte) []byte {
	sig := id.Sign(msg)
	if rec, ok := s.member(id.ID); ok && rec.pub.Equal(id.pub) {
		s.memo.record(memoKey(id.ID, msg, sig))
	}
	return sig
}

// Members lists enrolled, unrevoked member IDs with the given role, sorted.
func (s *Service) Members(role Role) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for id, rec := range s.members {
		if rec.role == role && !rec.revoked {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Policy is an endorsement policy: a predicate over the set of members that
// produced valid endorsement signatures.
type Policy interface {
	// Satisfied reports whether the set of verified endorser IDs meets the
	// policy.
	Satisfied(endorsers map[string]bool) bool
	// String renders the policy for diagnostics.
	String() string
}

type signedBy struct{ id string }

// SignedBy requires a specific member's endorsement.
func SignedBy(id string) Policy { return signedBy{id} }

func (p signedBy) Satisfied(e map[string]bool) bool { return e[p.id] }
func (p signedBy) String() string                   { return fmt.Sprintf("SignedBy(%s)", p.id) }

type kOutOf struct {
	k    int
	subs []Policy
}

// KOutOf requires at least k of the sub-policies to be satisfied.
func KOutOf(k int, subs ...Policy) Policy { return kOutOf{k: k, subs: subs} }

// And requires every sub-policy.
func And(subs ...Policy) Policy { return kOutOf{k: len(subs), subs: subs} }

// Or requires any sub-policy.
func Or(subs ...Policy) Policy { return kOutOf{k: 1, subs: subs} }

// AnyPeerOf requires an endorsement from any one of the given peers — the
// paper's experimental setup ("configure the smart contract to be endorsed
// by a single peer; any of the four peers can serve as the endorser").
func AnyPeerOf(ids ...string) Policy {
	subs := make([]Policy, len(ids))
	for i, id := range ids {
		subs[i] = SignedBy(id)
	}
	return Or(subs...)
}

func (p kOutOf) Satisfied(e map[string]bool) bool {
	n := 0
	for _, sub := range p.subs {
		if sub.Satisfied(e) {
			n++
			if n >= p.k {
				return true
			}
		}
	}
	return n >= p.k // covers k == 0
}

func (p kOutOf) String() string {
	return fmt.Sprintf("KOutOf(%d,%d subs)", p.k, len(p.subs))
}

// CheckEndorsements verifies every endorsement signature on tx against the
// membership service, then evaluates the policy over the set of valid
// endorsers. Non-peer or revoked signers never count.
func (s *Service) CheckEndorsements(tx *protocol.Transaction, policy Policy) error {
	digest := tx.Digest()
	valid := make(map[string]bool, len(tx.Endorsements))
	for _, e := range tx.Endorsements {
		rec, ok := s.member(e.EndorserID)
		if !ok || rec.role != RolePeer {
			continue
		}
		if s.memo.verify(memoKey(e.EndorserID, digest, e.Signature), func() bool {
			return ed25519.Verify(rec.pub, digest, e.Signature)
		}) {
			valid[e.EndorserID] = true
		}
	}
	if !policy.Satisfied(valid) {
		return fmt.Errorf("identity: endorsement policy %s unsatisfied by %d valid endorsements", policy, len(valid))
	}
	return nil
}

// memoCap bounds the verified-signature memo per Service. An entry has to
// outlive the gap between a signature's first check and its last one in
// this process (endorsement to peer validation, or one orderer replica's cut
// to the other's); at a few thousand transactions per second that is well
// under a second's worth. Keys are fixed-size, so the memo's memory is
// bounded by the cap alone.
const memoCap = 1 << 14

// sigKey identifies one (endorser, message, signature) triple.
type sigKey [sha256.Size]byte

// memoKey hashes the triple with length prefixes, so no two triples share a
// preimage.
func memoKey(id string, msg, sig []byte) sigKey {
	var stack [256]byte
	b := stack[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(id)))
	b = append(b, id...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
	b = append(b, msg...)
	b = append(b, sig...)
	return sha256.Sum256(b)
}

// sigMemo is a FIFO-evicted set of verified signature keys plus the
// verifications in flight, so concurrent checks of one key (two orderer
// replicas cutting the same block) share a single ed25519 call. Only
// successes are remembered: a failing signature is re-checked each time.
type sigMemo struct {
	mu       sync.Mutex
	verified map[sigKey]struct{}
	fifo     []sigKey // insertion order; overwritten from next once full
	next     int
	inflight map[sigKey]*sigCall
}

type sigCall struct {
	done chan struct{}
	ok   bool
}

func newSigMemo() sigMemo {
	return sigMemo{verified: make(map[sigKey]struct{}), inflight: make(map[sigKey]*sigCall)}
}

// verify reports whether k is verified, running check at most once across
// concurrent callers and remembering a success.
func (m *sigMemo) verify(k sigKey, check func() bool) bool {
	m.mu.Lock()
	if _, ok := m.verified[k]; ok {
		m.mu.Unlock()
		return true
	}
	if c := m.inflight[k]; c != nil {
		m.mu.Unlock()
		<-c.done
		return c.ok
	}
	c := &sigCall{done: make(chan struct{})}
	m.inflight[k] = c
	m.mu.Unlock()

	defer close(c.done)
	c.ok = check()
	m.mu.Lock()
	delete(m.inflight, k)
	if c.ok {
		m.addLocked(k)
	}
	m.mu.Unlock()
	return c.ok
}

// record remembers k as verified.
func (m *sigMemo) record(k sigKey) {
	m.mu.Lock()
	m.addLocked(k)
	m.mu.Unlock()
}

func (m *sigMemo) addLocked(k sigKey) {
	if _, dup := m.verified[k]; dup {
		return
	}
	m.verified[k] = struct{}{}
	if len(m.fifo) < memoCap {
		m.fifo = append(m.fifo, k)
		return
	}
	delete(m.verified, m.fifo[m.next])
	m.fifo[m.next] = k
	m.next = (m.next + 1) % memoCap
}

// reset forgets every remembered verification. A verification in flight
// may still record its result afterwards; that is harmless, because the
// memo is consulted only after the membership and revocation checks.
func (m *sigMemo) reset() {
	m.mu.Lock()
	m.verified = make(map[sigKey]struct{})
	m.fifo = nil
	m.next = 0
	m.mu.Unlock()
}
