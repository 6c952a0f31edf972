package main

import (
	"math/rand"

	"github.com/locastream/locastream/internal/topology"
	"github.com/locastream/locastream/internal/workload"
)

// Tuple layout fed to the topology: A counts field 0, B counts field 1,
// the payload rides as a real string field (Tuple.Padding only travels
// as a varint) and the sequence number lets B's sink time the tuple.
const (
	fieldA = iota
	fieldB
	fieldPayload
	fieldSeq
)

// Payloads are non-overlapping slices of one seeded random buffer, so
// the transport cannot compress a payload it has seen before. The
// dictionary interns strings of up to maxInterned bytes on their second
// sighting within an 8192-entry window per connection; such payloads
// recur only every smallSlots tuples — beyond that window on every
// connection. Longer payloads are never interned, and the LZ pass
// matches only within one 64 KiB frame, so largeSlots distinct ones do.
const (
	maxInterned = 1024
	smallSlots  = 1 << 16
	largeSlots  = 1 << 10
)

// stream is a pre-generated run of tuples, stored pointer-free so the
// harness adds next to nothing to the heap the garbage collector scans:
// ka/kb index the tuple's A and B keys in the input's key tables (the
// generator's reference counts are array increments), the payload and
// sequence-number fields are slices of shared strings. tuple builds the
// Tuple the engine receives.
type stream struct {
	in     *input
	ka, kb []int32
	pay0   int    // payload slot of tuple 0
	seq0   uint32 // sequence number of tuple 0
	seqs   string // 4 bytes per tuple
}

func (s *stream) len() int { return len(s.ka) }

func (s *stream) tuple(i int) topology.Tuple {
	return topology.Tuple{Values: []string{
		fieldA:       s.in.keysA[s.ka[i]],
		fieldB:       s.in.keysB[s.kb[i]],
		fieldPayload: s.in.payload(s.pay0 + i),
		fieldSeq:     s.seqs[4*i : 4*i+4],
	}}
}

// input is the state shared by the streams of one workload run: the key
// tables the streams index, the payload buffer and the sequence counter.
type input struct {
	keysA, keysB []string
	idxA, idxB   map[string]int32

	payloads string // one random buffer, sliced per tuple
	payloadN int    // payload size in bytes
	next     int    // tuples drawn so far: the next payload slot and sequence number
}

func newInput(seed int64, payloadSize int) *input {
	slots := smallSlots
	if payloadSize > maxInterned {
		slots = largeSlots
	}
	buf := make([]byte, slots*payloadSize)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(buf)
	return &input{
		idxA:     make(map[string]int32),
		idxB:     make(map[string]int32),
		payloads: string(buf),
		payloadN: payloadSize,
	}
}

func (in *input) keyA(k string) int32 {
	i, ok := in.idxA[k]
	if !ok {
		i = int32(len(in.keysA))
		in.idxA[k] = i
		in.keysA = append(in.keysA, k)
	}
	return i
}

func (in *input) keyB(k string) int32 {
	i, ok := in.idxB[k]
	if !ok {
		i = int32(len(in.keysB))
		in.idxB[k] = i
		in.keysB = append(in.keysB, k)
	}
	return i
}

// payload returns the slot-th non-overlapping slice of the random
// buffer, cycling through the buffer.
func (in *input) payload(slot int) string {
	off := slot % (len(in.payloads) / in.payloadN) * in.payloadN
	return in.payloads[off : off+in.payloadN]
}

// decodeSeq reads the sequence number take encodes: a fixed 4-byte
// little-endian string field, cheap to decode in the sink.
func decodeSeq(s string) (uint32, bool) {
	if len(s) != 4 {
		return 0, false
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24, true
}

// take draws the next n tuples from next.
func (in *input) take(n int, next func() (a, b string)) *stream {
	seqs := make([]byte, 4*n)
	s := &stream{in: in, ka: make([]int32, n), kb: make([]int32, n), pay0: in.next, seq0: uint32(in.next)}
	for i := 0; i < n; i++ {
		v := s.seq0 + uint32(i)
		seqs[4*i], seqs[4*i+1], seqs[4*i+2], seqs[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		a, b := next()
		s.ka[i], s.kb[i] = in.keyA(a), in.keyB(b)
	}
	s.seqs = string(seqs)
	in.next += n
	return s
}

// source produces the key pairs of one workload; nextWeek advances a
// drifting workload (nil for the stationary ones).
type source struct {
	next     func() (a, b string)
	nextWeek func()
	weekLen  int // tuples per week (0: no drift)
}

// synthSource is the §4.2 generator: two fields in [0, keys) that are
// equal with probability locality.
func synthSource(keys int, locality float64, seed int64) source {
	g := workload.NewSynthetic(keys, locality, 0, seed)
	return source{next: func() (string, string) {
		t := g.Next()
		return t.Values[0], t.Values[1]
	}}
}

// twitterSource is the §4.3 drifting (location, hashtag) generator.
func twitterSource(seed int64, weekLen int) source {
	cfg := workload.DefaultTwitterConfig()
	cfg.Seed = seed
	g := workload.NewTwitter(cfg)
	return source{
		next: func() (string, string) {
			t := g.Next()
			return t.Values[0], t.Values[1]
		},
		nextWeek: g.NextWeek,
		weekLen:  weekLen,
	}
}

// pairs returns the source's key-pair sequence, advancing a week every
// weekLen pairs counted across every stream drawn from it.
func (src source) pairs() func() (string, string) {
	if src.weekLen <= 0 {
		return src.next
	}
	n := 0
	return func() (string, string) {
		if n > 0 && n%src.weekLen == 0 {
			src.nextWeek()
		}
		n++
		return src.next()
	}
}
