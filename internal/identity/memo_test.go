package identity

import (
	"sync"
	"sync/atomic"
	"testing"

	"fabricsharp/internal/protocol"
)

// remembered reports whether svc's memo holds the triple as verified.
func remembered(svc *Service, id string, msg, sig []byte) bool {
	svc.memo.mu.Lock()
	defer svc.memo.mu.Unlock()
	_, ok := svc.memo.verified[memoKey(id, msg, sig)]
	return ok
}

func TestMemoRemembersOnlyVerifiedTriples(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	if _, err := svc.Enroll("p2", RolePeer); err != nil {
		t.Fatal(err)
	}
	tx := &protocol.Transaction{ID: "tx", Contract: "kv"}
	endorse(t, svc, tx, p1)
	digest, sig := tx.Digest(), tx.Endorsements[0].Signature
	if err := svc.CheckEndorsements(tx, SignedBy("p1")); err != nil {
		t.Fatal(err)
	}
	if !remembered(svc, "p1", digest, sig) {
		t.Fatal("successful verification not remembered")
	}
	// A hit answers without ed25519: the verdict stays the same.
	if err := svc.CheckEndorsements(tx, SignedBy("p1")); err != nil {
		t.Fatalf("memo hit changed the verdict: %v", err)
	}

	otherMsg := &protocol.Transaction{ID: "tx-other", Contract: "kv"}
	otherMsg.Endorsements = []protocol.Endorsement{{EndorserID: "p1", Signature: sig}}
	badSig := append([]byte(nil), sig...)
	badSig[0] ^= 1
	otherSig := &protocol.Transaction{ID: "tx", Contract: "kv",
		Endorsements: []protocol.Endorsement{{EndorserID: "p1", Signature: badSig}}}
	otherEndorser := &protocol.Transaction{ID: "tx", Contract: "kv",
		Endorsements: []protocol.Endorsement{{EndorserID: "p2", Signature: sig}}}
	for name, c := range map[string]struct {
		tx     *protocol.Transaction
		policy Policy
	}{
		"changed message":   {otherMsg, SignedBy("p1")},
		"changed signature": {otherSig, SignedBy("p1")},
		"another endorser":  {otherEndorser, SignedBy("p2")},
	} {
		if err := svc.CheckEndorsements(c.tx, c.policy); err == nil {
			t.Errorf("%s: accepted through the memo", name)
		}
		e := c.tx.Endorsements[0]
		if remembered(svc, e.EndorserID, c.tx.Digest(), e.Signature) {
			t.Errorf("%s: failed verification remembered", name)
		}
	}
}

func TestRevokeForgetsVerifications(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	p2, _ := svc.Enroll("p2", RolePeer)
	tx := &protocol.Transaction{ID: "tx"}
	endorse(t, svc, tx, p1)
	endorse(t, svc, tx, p2)
	if err := svc.CheckEndorsements(tx, And(SignedBy("p1"), SignedBy("p2"))); err != nil {
		t.Fatal(err)
	}
	svc.Revoke("p1")
	for _, e := range tx.Endorsements {
		if remembered(svc, e.EndorserID, tx.Digest(), e.Signature) {
			t.Errorf("%s's verification survived a revocation", e.EndorserID)
		}
	}
	if err := svc.CheckEndorsements(tx, SignedBy("p1")); err == nil {
		t.Error("revoked endorser satisfied policy")
	}
	if err := svc.CheckEndorsements(tx, SignedBy("p2")); err != nil {
		t.Errorf("unrevoked endorser rejected after another's revocation: %v", err)
	}
}

func TestSignAsRecordsOnlyTheRegisteredKey(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	msg := []byte("digest")

	sig := svc.SignAs(p1, msg)
	if !remembered(svc, "p1", msg, sig) {
		t.Fatal("SignAs with the registered key recorded nothing")
	}
	if !svc.Verify("p1", msg, sig) {
		t.Fatal("SignAs produced an invalid signature")
	}

	// Unregistered member: signs, records nothing.
	stranger := Deterministic("stranger", RolePeer)
	sig = svc.SignAs(stranger, msg)
	if remembered(svc, "stranger", msg, sig) {
		t.Error("SignAs recorded an unregistered member")
	}
	// A credential claiming p1's name with another key: records nothing, and
	// its signature still fails the endorsement check.
	impostor := Deterministic("p1", RolePeer)
	sig = svc.SignAs(impostor, msg)
	if remembered(svc, "p1", msg, sig) {
		t.Error("SignAs recorded a key that is not the registered one")
	}
	tx := &protocol.Transaction{ID: "tx"}
	tx.Endorsements = []protocol.Endorsement{{EndorserID: "p1", Signature: svc.SignAs(impostor, tx.Digest())}}
	if err := svc.CheckEndorsements(tx, SignedBy("p1")); err == nil {
		t.Error("impostor's endorsement accepted")
	}
	// A revoked member's signatures are not recorded either.
	svc.Revoke("p1")
	sig = svc.SignAs(p1, []byte("after"))
	if remembered(svc, "p1", []byte("after"), sig) {
		t.Error("SignAs recorded a revoked member")
	}
}

func TestMemoCapEvictsOldestFirst(t *testing.T) {
	m := newSigMemo()
	key := func(i int) sigKey { return memoKey("p", []byte{byte(i), byte(i >> 8), byte(i >> 16)}, nil) }
	const extra = 10
	for i := 0; i < memoCap+extra; i++ {
		m.record(key(i))
	}
	m.record(key(memoCap + extra - 1)) // a duplicate takes no slot
	if len(m.verified) != memoCap || len(m.fifo) != memoCap {
		t.Fatalf("memo holds %d keys (fifo %d), cap %d", len(m.verified), len(m.fifo), memoCap)
	}
	for i := 0; i < extra; i++ {
		if _, ok := m.verified[key(i)]; ok {
			t.Fatalf("key %d outlived the cap", i)
		}
	}
	for _, i := range []int{extra, memoCap, memoCap + extra - 1} {
		if _, ok := m.verified[key(i)]; !ok {
			t.Fatalf("key %d evicted out of order", i)
		}
	}
}

// TestMemoConcurrentCallersVerifyOnce runs many goroutines on one key: each
// either waits for the verification in flight or finds it remembered, so the
// check runs once.
func TestMemoConcurrentCallersVerifyOnce(t *testing.T) {
	m := newSigMemo()
	k := memoKey("p", []byte("msg"), []byte("sig"))
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !m.verify(k, func() bool { calls.Add(1); return true }) {
				t.Error("shared verification reported failure")
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("check ran %d times for one key", n)
	}
}

// TestCheckEndorsementsConcurrent shares one Service across goroutines the
// way two orderer replicas and a peer's validator workers do.
func TestCheckEndorsementsConcurrent(t *testing.T) {
	svc := NewService()
	p1, _ := svc.Enroll("p1", RolePeer)
	txs := make([]*protocol.Transaction, 32)
	for i := range txs {
		txs[i] = &protocol.Transaction{ID: protocol.TxID(rune('a' + i))}
		txs[i].Precompute()
		if i%2 == 0 {
			txs[i].Endorsements = []protocol.Endorsement{{EndorserID: "p1", Signature: svc.SignAs(p1, txs[i].Digest())}}
		} else {
			endorse(t, svc, txs[i], p1)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tx := range txs {
				if err := svc.CheckEndorsements(tx, SignedBy("p1")); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.Revoke("nobody") // resets the memo mid-flight
	}()
	wg.Wait()
}
