package transport

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// A small LZ77 pass for frame payloads, stdlib-only (ROADMAP rules out
// pulling in snappy/lz4; compress/flate's Huffman stage costs too much
// on a 1ms-flush hot path). The format is the LZ4 block idea reduced to
// what a 64KiB batch needs:
//
//	token: 1 byte — hi nibble literal-length code, lo nibble match-length code
//	[literal-length extension: uvarint, present when hi nibble == 15]
//	literals: that many raw bytes
//	match offset: 2 bytes LE, 1..65535 back from the write position
//	[match-length extension: uvarint, present when lo nibble == 15]
//
// Match length is code+4 (minimum match lzMinMatch). The final sequence
// carries literals only: it ends the block without an offset, signalled
// by offset bytes being absent because the input is exhausted.
//
// The compressor is greedy with a single 8K-entry hash table. On
// incompressible input it accelerates the way Snappy and LZ4 do: after
// 32 consecutive misses the probe stride starts to grow (see
// lzSkipLog2), and the next match resets it to one. A 32KiB random
// buffer then costs a few hundred probes rather than 32K (GB/s instead
// of ~150MB/s), while data with repeats finds them before the stride
// has grown. The stride changes which matches
// are found, never the format: lzAppendDecompress reads every stream
// the stride-one compressor wrote.
//
// A match is emitted only when its sequence costs no more bytes than
// the input it covers, so the output never exceeds the input by more
// than the terminal sequence's token and literal-length varint:
// lzMaxCompressedLen bounds it, and callers size scratch buffers by it.
const (
	lzMinMatch  = 4
	lzMaxOffset = 65535
	lzHashBits  = 13
	lzHashShift = 64 - lzHashBits

	// lzSkipLog2 sets the acceleration: the stride is skip>>lzSkipLog2,
	// with skip starting at 1<<lzSkipLog2 and growing by the stride on
	// every miss — 32 misses at stride one, 16 at stride two, and so on.
	lzSkipLog2    = 5
	lzSkipTrigger = 1 << lzSkipLog2
)

var errLZCorrupt = errors.New("transport: corrupt compressed payload")

func lzHash(v uint32) uint32 {
	// Knuth multiplicative hashing on the 4 candidate bytes.
	return (v * 2654435761) >> (32 - lzHashBits)
}

func lzLoad32(p []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(p[i:])
}

// lzAppendCompress appends the compressed form of src to dst and
// returns it; at most lzMaxCompressedLen(len(src)) bytes are appended.
// The caller compares lengths and keeps the raw payload when
// compression did not save enough.
func lzAppendCompress(dst, src []byte, table *[1 << lzHashBits]int32) []byte {
	// Positions stored +1 so the zero value means "empty"; stale entries
	// from a previous frame are validated by byte comparison anyway, but
	// a stale position can exceed the current src, so each frame clears
	// the table. 32KiB memset per frame is ~1µs — noise next to the scan.
	clear(table[:])

	var (
		pos     int // next byte to process
		litFrom int // start of the unemitted literal run
		skip    = lzSkipTrigger
	)
	for pos+4 <= len(src) { // lzLoad32 needs 4 readable bytes at pos
		h := lzHash(lzLoad32(src, pos))
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		matchLen := 0
		if cand >= 0 && pos-cand <= lzMaxOffset && lzLoad32(src, cand) == lzLoad32(src, pos) {
			matchLen = lzMinMatch
			for pos+matchLen < len(src) && src[cand+matchLen] == src[pos+matchLen] {
				matchLen++
			}
		}
		// A miss, or a short match after a literal run long enough that
		// its sequence would cost more than the bytes it covers.
		if matchLen == 0 || lzSeqOverhead(pos-litFrom, matchLen) > matchLen {
			pos += skip >> lzSkipLog2
			skip += skip >> lzSkipLog2
			continue
		}
		dst = lzAppendSeq(dst, src[litFrom:pos], pos-cand, matchLen)
		pos += matchLen
		litFrom = pos
		skip = lzSkipTrigger
	}
	// Trailing literals (no offset follows: decoder sees input end).
	if litFrom < len(src) || len(src) == 0 {
		dst = lzAppendSeq(dst, src[litFrom:], 0, 0)
	}
	return dst
}

// lzMaxCompressedLen bounds lzAppendCompress's output for n input
// bytes: every match sequence costs at most the bytes it covers, so only
// the terminal sequence's token and literal-length varint are extra.
func lzMaxCompressedLen(n int) int {
	return n + 1 + binary.MaxVarintLen64
}

// lzSeqOverhead is the encoded size of a sequence with litLen literals
// and a matchLen match, minus the literals themselves: the token, the
// offset and whichever length extensions the codes overflow into.
func lzSeqOverhead(litLen, matchLen int) int {
	n := 3 // token + 2-byte offset
	if litLen >= 15 {
		n += lzUvarintLen(uint64(litLen - 15))
	}
	if matchLen-lzMinMatch >= 15 {
		n += lzUvarintLen(uint64(matchLen - lzMinMatch - 15))
	}
	return n
}

// lzUvarintLen is the length binary.AppendUvarint gives v: 7 bits a byte.
func lzUvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// lzAppendSeq emits one sequence. matchLen == 0 means the terminal
// literals-only sequence.
func lzAppendSeq(dst, lits []byte, offset, matchLen int) []byte {
	litCode := len(lits)
	if litCode > 14 {
		litCode = 15
	}
	matchCode := 0
	if matchLen > 0 {
		matchCode = matchLen - lzMinMatch
		if matchCode > 14 {
			matchCode = 15
		}
	}
	dst = append(dst, byte(litCode<<4|matchCode))
	if litCode == 15 {
		dst = binary.AppendUvarint(dst, uint64(len(lits)-15))
	}
	dst = append(dst, lits...)
	if matchLen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if matchCode == 15 {
		dst = binary.AppendUvarint(dst, uint64(matchLen-lzMinMatch-15))
	}
	return dst
}

// lzAppendDecompress appends the decompressed form of src to dst,
// failing if the output would exceed limit bytes (the declared raw
// length, which readFrame has already bounded by maxFramePayload) or if
// any sequence is malformed. Matches may overlap their own output —
// copied byte-by-byte for exactly that reason.
func lzAppendDecompress(dst, src []byte, limit int) ([]byte, error) {
	base := len(dst)
	for len(src) > 0 {
		token := src[0]
		src = src[1:]
		litLen := int(token >> 4)
		if litLen == 15 {
			ext, n := binary.Uvarint(src)
			if n <= 0 || ext > uint64(limit) {
				return dst, errLZCorrupt
			}
			litLen += int(ext)
			src = src[n:]
		}
		if litLen > len(src) || len(dst)-base+litLen > limit {
			return dst, errLZCorrupt
		}
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		if len(src) == 0 {
			return dst, nil // terminal literals-only sequence
		}
		if len(src) < 2 {
			return dst, errLZCorrupt
		}
		offset := int(src[0]) | int(src[1])<<8
		src = src[2:]
		matchLen := int(token&0x0f) + lzMinMatch
		if matchLen == 15+lzMinMatch {
			ext, n := binary.Uvarint(src)
			if n <= 0 || ext > uint64(limit) {
				return dst, errLZCorrupt
			}
			matchLen += int(ext)
			src = src[n:]
		}
		if offset == 0 || offset > len(dst)-base || len(dst)-base+matchLen > limit {
			return dst, errLZCorrupt
		}
		from := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	return dst, nil
}
