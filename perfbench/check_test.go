package main

import (
	"testing"
	"time"

	"repro/internal/kvproto"
)

// Each output check must flag a corrupted reply: these tests feed the
// checkers replies a broken server could give and assert the violation.

func testClient() *client {
	keys := [][]byte{[]byte("c0.k00000"), []byte("c0.k00001"), []byte("c0.n000")}
	m := newModel("test", keys, func(k int, ver uint32) int { return 64 + k }, int64(time.Second))
	return &client{m: m, casids: make([]uint64, len(keys)), reset: make([]bool, len(keys))}
}

func value(m *model, k int, ver uint32) []byte {
	return appendValue(nil, m.keys[k], ver, m.size(k, ver))
}

// reply runs one answered read of key k through the client's accounting,
// as if the server had returned got (nil: a miss), sent at sentAt.
func reply(c *client, kind opKind, k int, got []byte, sentAt int64) {
	c.arena, c.hitRecs = c.arena[:0], c.hitRecs[:0]
	if got != nil {
		c.addHit(k, got, 7)
	}
	r := &request{kind: kind, key: k, sent: sentAt, at: sentAt + 1, hitLo: 0, hitHi: len(c.hitRecs)}
	c.account(r)
}

func write(c *client, r request) {
	r.sent, r.at = 90, 100
	c.account(&r)
}

func wantViolations(t *testing.T, c *client, n uint64) {
	t.Helper()
	if c.m.violations != n {
		t.Fatalf("violations = %d, want %d (%v)", c.m.violations, n, c.m.examples)
	}
}

func TestLegalRepliesPass(t *testing.T) {
	c := testClient()
	reply(c, opGet, 0, nil, 50) // a miss is always legal
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0)})
	reply(c, opGet, 0, value(c.m, 0, 1), 200)
	reply(c, opGet, 0, nil, 200)
	// After a failed set either version is legal.
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0), failed: true})
	reply(c, opGet, 0, value(c.m, 0, 1), 300)
	reply(c, opGet, 0, value(c.m, 0, 2), 300)
	// A TTL'd value may be read until its deadline plus the grace.
	write(c, request{kind: opSet, key: 1, ver: c.m.nextVersion(1), ttl: true})
	reply(c, opGet, 1, value(c.m, 1, 1), 100+ttlExptime*int64(time.Second)+ttlGrace)
	wantViolations(t, c, 0)
}

func TestStaleVersionFlagged(t *testing.T) {
	c := testClient()
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0)})
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0)})
	reply(c, opGet, 0, value(c.m, 0, 1), 200)
	wantViolations(t, c, 1)
}

func TestOtherKeysValueFlagged(t *testing.T) {
	c := testClient()
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0)})
	write(c, request{kind: opSet, key: 1, ver: c.m.nextVersion(1)})
	reply(c, opGet, 0, value(c.m, 1, 1), 200)
	wantViolations(t, c, 1)
}

func TestHitOnDeletedOrNeverWrittenKeyFlagged(t *testing.T) {
	c := testClient()
	reply(c, opGet, 1, value(c.m, 1, 1), 200) // never written
	wantViolations(t, c, 1)
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0)})
	write(c, request{kind: opDel, key: 0})
	reply(c, opGet, 0, value(c.m, 0, 1), 200)
	wantViolations(t, c, 2)
}

func TestCasExistsOnOwnerCounterFlagged(t *testing.T) {
	c := testClient()
	write(c, request{kind: opSet, key: 2, ver: c.m.nextVersion(2)})
	reply(c, opGets, 2, value(c.m, 2, 1), 200)
	if c.casids[2] != 7 {
		t.Fatalf("gets hit did not arm the cas: casid %d", c.casids[2])
	}
	write(c, request{kind: opCas, key: 2, ver: c.m.nextVersion(2), casid: 7, cas: kvproto.CasStored})
	wantViolations(t, c, 0)
	write(c, request{kind: opCas, key: 2, ver: c.m.nextVersion(2), casid: 8, cas: kvproto.CasExists})
	wantViolations(t, c, 1)
}

func TestExpiredValueFlagged(t *testing.T) {
	c := testClient()
	write(c, request{kind: opSet, key: 0, ver: c.m.nextVersion(0), ttl: true})
	reply(c, opGet, 0, value(c.m, 0, 1), 100+ttlExptime*int64(time.Second)+ttlGrace+1)
	wantViolations(t, c, 1)
}

func TestEngineCountOffByOneFlagged(t *testing.T) {
	if err := engineCheck("t", 100, 60, 100, 100, 60, 60, 0); err != nil {
		t.Fatalf("exact counts flagged: %v", err)
	}
	for _, tc := range []struct{ gets, hits uint64 }{{101, 60}, {99, 60}, {100, 61}, {100, 59}} {
		if engineCheck("t", tc.gets, tc.hits, 100, 100, 60, 60, 0) == nil {
			t.Errorf("engine gets %d hits %d against 100/60 not flagged", tc.gets, tc.hits)
		}
	}
}

func TestEmbeddedValueCheck(t *testing.T) {
	if !embCheck(42, embValue(42)) {
		t.Fatal("the value written is rejected")
	}
	if embCheck(42, embValue(43)) {
		t.Fatal("another key's value is accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, lo, hi := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || lo != 1 || hi != 10 {
		t.Fatalf("got %v %v %v %v %v", q1, med, q3, lo, hi)
	}
}

func TestMidMean(t *testing.T) {
	// The middle half of 1..8 is 3..6; one wild window does not move it.
	if got := midMean([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Fatalf("got %v, want 4.5", got)
	}
	if got := midMean([]float64{1000, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Fatalf("got %v with an outlier, want 4.5", got)
	}
}

func TestBeladyHitRatio(t *testing.T) {
	keys := []uint64{1, 2, 3, 1, 2, 3}
	s := refStream{n: len(keys), at: func(i int) refOp { return refOp{kind: opGet, key: keys[i]} }, readThrough: true}
	if got := beladyHitRatio(s, 2); got != 2.0/6 {
		t.Fatalf("OPT hit ratio %v, want 1/3", got)
	}
}
