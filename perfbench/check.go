package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
)

// The output checks. Every check is a property of memcached semantics,
// never a recording of an earlier run: a hit must carry, byte for byte,
// the value of a write its owning client had acknowledged (or might have
// applied, after a failed op), a deleted or never-written key must not
// hit, a TTL'd value must not outlive its client-side deadline plus a
// grace for the coarse expiry clock, an owner-only cas must not answer
// EXISTS, and the engine's own counters must agree with what the
// clients sent and saw. Misses are legal everywhere: eviction and expiry
// are the only sources of one, and both are allowed.

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashKey(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// appendValue builds the value the benchmark writes as version ver of
// key: a "key:ver:" header, then a filler word derived from (key, ver),
// repeated to size bytes. The checker rebuilds it from (key, ver) alone.
func appendValue(dst, key []byte, ver uint32, size int) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, uint64(ver), 10)
	dst = append(dst, ':')
	n := size - (len(dst) - start)
	if n <= 0 {
		return dst
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], mix64(hashKey(key)^uint64(ver)<<32))
	dst = append(dst, make([]byte, n)...)
	fill := dst[len(dst)-n:]
	done := copy(fill, word[:])
	for done < n {
		done += copy(fill[done:], fill[:done])
	}
	return dst
}

// legal is one value a key may currently return on a hit.
type legal struct {
	ver      uint32
	deadline int64 // client-side expiry deadline, unix ns; 0 = none
}

// keyModel is one key's sequential model. vers lists every version a hit
// may carry: exactly the last acknowledged write normally, more after a
// write whose outcome is unknown, none after a delete or before the
// first write.
type keyModel struct {
	vers []legal
	next uint32 // last version handed out for this key
}

// model is the checker for one owning client's keys.
type model struct {
	name    string
	keys    [][]byte
	state   []keyModel
	size    func(k int, ver uint32) int
	grace   int64 // ns added to a TTL deadline before a hit is a violation
	scratch []byte

	violations uint64
	examples   []string
}

func newModel(name string, keys [][]byte, size func(k int, ver uint32) int, grace int64) *model {
	return &model{name: name, keys: keys, state: make([]keyModel, len(keys)), size: size, grace: grace}
}

func (m *model) violate(format string, args ...any) {
	m.violations++
	if len(m.examples) < 5 {
		m.examples = append(m.examples, m.name+": "+fmt.Sprintf(format, args...))
	}
}

// nextVersion returns the next version to write to key k.
func (m *model) nextVersion(k int) uint32 {
	m.state[k].next++
	return m.state[k].next
}

// acked records an acknowledged write of ver.
func (m *model) acked(k int, ver uint32, deadline int64) {
	st := &m.state[k]
	st.vers = append(st.vers[:0], legal{ver, deadline})
}

// ambiguous records a write of ver whose outcome is unknown: the key may
// now hold it or what it held before.
func (m *model) ambiguous(k int, ver uint32, deadline int64) {
	st := &m.state[k]
	st.vers = append(st.vers, legal{ver, deadline})
}

// deleted records an acknowledged delete (DELETED or NOT_FOUND alike).
func (m *model) deleted(k int) { m.state[k].vers = m.state[k].vers[:0] }

// hit checks a hit on key k returning got, for a request sent at sentAt
// (unix ns). It returns the matched version, or 0 when the hit is a
// violation.
func (m *model) hit(k int, got []byte, sentAt int64) uint32 {
	st := &m.state[k]
	if len(st.vers) == 0 {
		if st.next == 0 {
			m.violate("hit on never-written key %s", m.keys[k])
		} else {
			m.violate("hit on deleted key %s", m.keys[k])
		}
		return 0
	}
	for _, l := range st.vers {
		m.scratch = appendValue(m.scratch[:0], m.keys[k], l.ver, m.size(k, l.ver))
		if !bytes.Equal(got, m.scratch) {
			continue
		}
		if l.deadline != 0 && sentAt > l.deadline+m.grace {
			m.violate("key %s version %d returned %.3fs past its TTL deadline",
				m.keys[k], l.ver, float64(sentAt-l.deadline)/1e9)
			return 0
		}
		return l.ver
	}
	m.violate("key %s returned %q, not version %d (nor any legal version)",
		m.keys[k], clip(got), st.vers[len(st.vers)-1].ver)
	return 0
}

// casExists flags an EXISTS reply to a cas on an owner-only counter: no
// other client writes it, so its unique cannot have moved.
func (m *model) casExists(k int) {
	m.violate("cas on owner-only counter %s answered EXISTS", m.keys[k])
}

func clip(b []byte) []byte {
	if len(b) > 40 {
		return b[:40]
	}
	return b
}

// engineCheck compares the engine's get counters with what the clients
// sent and observed. sentLo counts gets whose reply arrived, sentHi adds
// gets of failed requests, which the engine may or may not have seen;
// likewise for hits. collisions is the engine's HashCollisions count: a
// colliding key is an engine hit but a client-visible miss.
func engineCheck(name string, gets, hits, sentLo, sentHi, hitsSeen, hitsHi, collisions uint64) error {
	if gets < sentLo || gets > sentHi {
		return fmt.Errorf("%s: engine counted %d gets, clients sent %d..%d", name, gets, sentLo, sentHi)
	}
	if hits < hitsSeen || hits > hitsHi+collisions {
		return fmt.Errorf("%s: engine counted %d get hits, clients saw %d..%d (hash collisions %d)",
			name, hits, hitsSeen, hitsHi, collisions)
	}
	return nil
}
