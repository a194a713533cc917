package protocol

import (
	"bytes"
	"fmt"
	"testing"

	"fabricsharp/internal/seqno"
)

func sampleTx() *Transaction {
	return &Transaction{
		ID:            "tx1",
		ClientID:      "alice",
		Contract:      "kv",
		Function:      "transfer",
		Args:          []string{"a", "b", "10"},
		SnapshotBlock: 4,
		RWSet: RWSet{
			Reads: []ReadItem{
				{Key: "a", Version: seqno.Commit(3, 1)},
				{Key: "b", Version: seqno.Commit(4, 2)},
			},
			Writes: []WriteItem{
				{Key: "a", Value: []byte("90")},
				{Key: "b", Value: []byte("110")},
			},
		},
	}
}

func TestStartTS(t *testing.T) {
	tx := sampleTx()
	if got := tx.StartTS(); got != seqno.Snapshot(4) {
		t.Errorf("StartTS = %v", got)
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	a, b := sampleTx(), sampleTx()
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("digest not deterministic")
	}
	mutations := []func(*Transaction){
		func(tx *Transaction) { tx.ID = "tx2" },
		func(tx *Transaction) { tx.Args[2] = "11" },
		func(tx *Transaction) { tx.SnapshotBlock = 5 },
		func(tx *Transaction) { tx.RWSet.Reads[0].Version = seqno.Commit(3, 2) },
		func(tx *Transaction) { tx.RWSet.Writes[0].Value = []byte("91") },
		func(tx *Transaction) { tx.RWSet.Writes[0].Delete = true },
	}
	for i, mutate := range mutations {
		tx := sampleTx()
		mutate(tx)
		if bytes.Equal(tx.Digest(), a.Digest()) {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
	if len(a.DigestHex()) != 64 {
		t.Errorf("DigestHex length = %d", len(a.DigestHex()))
	}
}

// TestDigestGolden pins the digest encoding: endorsement signatures and
// block data hashes are made over these bytes, so any change to the preimage
// must show up here rather than silently invalidating signatures. The large
// case overflows the digest's stack buffer and sets a delete flag.
func TestDigestGolden(t *testing.T) {
	large := sampleTx()
	for i := 0; i < 64; i++ {
		large.RWSet.Reads = append(large.RWSet.Reads, ReadItem{Key: fmt.Sprintf("metric/%03d", i), Version: seqno.Commit(uint64(i), uint32(i))})
	}
	large.RWSet.Writes[1].Delete = true
	for _, tc := range []struct {
		name string
		tx   *Transaction
		want string
	}{
		{"sample", sampleTx(), "13ab6243b357665475577008c2a9685eea3c4345669456f4d9672a64272eb39c"},
		{"large", large, "4ae2dc1a5c91cef713907be5f04e1200b0aa49f7463d2b855147e96440a43d6a"},
	} {
		if got := tc.tx.DigestHex(); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
		tc.tx.Precompute()
		if got := tc.tx.DigestHex(); got != tc.want {
			t.Errorf("%s: precomputed digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPrecomputeMemoizesDigest(t *testing.T) {
	tx := sampleTx()
	want := tx.Digest()
	tx.Precompute()
	if !bytes.Equal(tx.Digest(), want) {
		t.Fatal("precomputed digest differs from the computed one")
	}
	if got := tx.RWSet.ReadKeys(); len(got) != 2 {
		t.Errorf("Precompute left the key caches empty: %v", got)
	}
	// The memo is what Digest returns from then on: no hashing per call.
	if allocs := testing.AllocsPerRun(100, func() { _ = tx.Digest() }); allocs != 0 {
		t.Errorf("memoized Digest allocates %.0f times per call", allocs)
	}
	// Without Precompute every call rehashes, so a change is always seen.
	fresh := sampleTx()
	_ = fresh.Digest()
	fresh.RWSet.Writes[0].Value = []byte("91")
	if bytes.Equal(fresh.Digest(), want) {
		t.Error("Digest filled a memo lazily")
	}
}

func TestValidationCodeStrings(t *testing.T) {
	codes := []ValidationCode{
		Valid, MVCCConflict, EndorsementFailure, AbortCycle, AbortStaleSnapshot,
		AbortConcurrentWW, AbortDangerousStructure, AbortSimulation,
		AbortReorderCycle, AbortDuplicate,
	}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("code %d renders %q (empty or duplicate)", c, s)
		}
		seen[s] = true
	}
	if ValidationCode(200).String() == "" {
		t.Error("unknown code renders empty")
	}
}

func TestIsEarlyAbort(t *testing.T) {
	early := []ValidationCode{AbortCycle, AbortStaleSnapshot, AbortConcurrentWW,
		AbortDangerousStructure, AbortSimulation, AbortReorderCycle, AbortDuplicate}
	for _, c := range early {
		if !c.IsEarlyAbort() {
			t.Errorf("%v should be early", c)
		}
	}
	for _, c := range []ValidationCode{Valid, MVCCConflict, EndorsementFailure} {
		if c.IsEarlyAbort() {
			t.Errorf("%v should not be early", c)
		}
	}
}

func TestReadWriteKeysDedupSorted(t *testing.T) {
	rw := RWSet{
		Reads:  []ReadItem{{Key: "z"}, {Key: "a"}, {Key: "z"}},
		Writes: []WriteItem{{Key: "m"}, {Key: "b"}, {Key: "m"}},
	}
	if got := rw.ReadKeys(); len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Errorf("ReadKeys = %v", got)
	}
	if got := rw.WriteKeys(); len(got) != 2 || got[0] != "b" || got[1] != "m" {
		t.Errorf("WriteKeys = %v", got)
	}
}
