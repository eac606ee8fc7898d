package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Per-block compression for trace format v2. A compressed stream carries
// "BLKC" frames instead of "BLK2": each frame leads with a one-byte codec
// flag selecting how its payload is stored, so every block decides
// independently — the writer's skip-if-incompressible heuristic stores a
// block raw (CodecNone) whenever compression would not shrink it. The CRC
// always covers the stored (possibly compressed) bytes, so damage is
// detected before any inflation work, and a flipped byte inside a
// compressed payload surfaces as the same ErrChecksum at the same frame
// offset as it would in an uncompressed stream.
//
// Two codecs are implemented, both dependency-free:
//
//   - CodecLZ: a snappy-style byte-oriented LZ77 with a 64 KiB window —
//     cheap to decode, built for per-block decoding on a worker pool.
//   - CodecFlate: stdlib compress/flate (DEFLATE) — slower, tighter.

// Codec identifies a per-block compression algorithm. The zero value is
// CodecNone (stored raw).
type Codec byte

const (
	// CodecNone stores block payloads raw.
	CodecNone Codec = iota
	// CodecLZ compresses blocks with the built-in snappy-style LZ77.
	CodecLZ
	// CodecFlate compresses blocks with stdlib DEFLATE.
	CodecFlate

	numCodecs
)

// String returns the codec's wire-stable name.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecLZ:
		return "lz"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", byte(c))
}

// Codecs lists every supported codec, for CLIs and tests that sweep them.
func Codecs() []Codec { return []Codec{CodecNone, CodecLZ, CodecFlate} }

// ParseCodec maps a codec name ("none", "lz", "flate") to its Codec.
func ParseCodec(s string) (Codec, error) {
	for _, c := range Codecs() {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return CodecNone, fmt.Errorf("trace: unknown codec %q (want none, lz, or flate)", s)
}

// minCompressLen is the smallest block the writer bothers compressing;
// below this the framing overhead dwarfs any win.
const minCompressLen = 64

// expandBlock inflates a compressed block frame's stored payload into a
// pooled buffer of exactly bf.ulen bytes. The caller owns the returned
// buffer (recycle with putPayloadBuf); bf.payload is left untouched. The
// declared uncompressed length was bounded to maxBlockLen when the frame
// was read, so a hostile header cannot force a giant allocation here.
// Failures are ErrMalformed at the frame offset: the stored bytes passed
// their CRC, so a stream that does not inflate cleanly was written wrong.
func expandBlock(bf *blockFrame) ([]byte, error) {
	dst := getPayloadBuf(bf.ulen)
	var err error
	switch bf.codec {
	case CodecLZ:
		dst, err = lzExpand(dst, bf.payload, bf.ulen)
	case CodecFlate:
		dst, err = flateExpand(dst, bf.payload, bf.ulen)
	default:
		// readBlockFrame validates the codec byte; this is unreachable from
		// stream bytes.
		err = fmt.Errorf("codec %d has no decoder", bf.codec)
	}
	if err == nil && len(dst) != bf.ulen {
		err = fmt.Errorf("inflated to %d bytes, header declares %d", len(dst), bf.ulen)
	}
	if err != nil {
		putPayloadBuf(dst)
		return nil, formatErr(bf.frameOff, ErrMalformed, "block decompress (%s): %v", bf.codec, err)
	}
	return dst, nil
}

// --- snappy-style LZ codec ------------------------------------------------
//
// The stream is a sequence of ops, each led by a control byte:
//
//	0x00..0x7f  literal run: (b + 1) bytes follow verbatim (1..128)
//	0x80..0xff  match: length (b & 0x7f) + 4 (4..131), then a 2-byte
//	            little-endian offset (1..65535) back into decoded output
//
// The encoder is greedy with a 16-bit hash table over 4-byte sequences and
// a 64 KiB match window, so offsets always fit the 2-byte field. The
// decoder is pure bounds-checked Go: any malformed op is an error, output
// never exceeds the caller's declared size, and overlapping copies (the
// RLE trick) are handled byte-by-byte.

const (
	lzMinMatch   = 4
	lzMaxMatch   = 131
	lzMaxLiteral = 128
	lzWindow     = 1 << 16 // max encodable match offset (65535) + 1
	lzHashBits   = 14
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzEmitLiterals appends lit as one or more literal runs.
func lzEmitLiterals(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), lzMaxLiteral)
		dst = append(dst, byte(n-1))
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

// lzAppend appends the compressed form of src to dst and returns it.
func lzAppend(dst, src []byte) []byte {
	var table [1 << lzHashBits]int32 // position + 1; 0 = empty
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		seq := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(seq)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand >= 0 && i-cand < lzWindow && binary.LittleEndian.Uint32(src[cand:]) == seq {
			length := lzMinMatch
			for i+length < len(src) && length < lzMaxMatch && src[cand+length] == src[i+length] {
				length++
			}
			dst = lzEmitLiterals(dst, src[litStart:i])
			off := i - cand
			dst = append(dst, byte(0x80|(length-lzMinMatch)), byte(off), byte(off>>8))
			i += length
			litStart = i
		} else {
			i++
		}
	}
	return lzEmitLiterals(dst, src[litStart:])
}

// lzExpand appends the decompressed form of src to dst, failing on any
// malformed op and refusing to grow dst past max bytes total.
func lzExpand(dst, src []byte, max int) ([]byte, error) {
	for i := 0; i < len(src); {
		b := src[i]
		i++
		if b < 0x80 {
			n := int(b) + 1
			if i+n > len(src) {
				return dst, errors.New("lz: literal run past end of input")
			}
			if len(dst)+n > max {
				return dst, errors.New("lz: output exceeds declared length")
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		if i+2 > len(src) {
			return dst, errors.New("lz: match op past end of input")
		}
		length := int(b&0x7f) + lzMinMatch
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 || off > len(dst) {
			return dst, errors.New("lz: match offset out of range")
		}
		if len(dst)+length > max {
			return dst, errors.New("lz: output exceeds declared length")
		}
		start := len(dst) - off
		for j := 0; j < length; j++ { // byte-wise: copies may overlap
			dst = append(dst, dst[start+j])
		}
	}
	return dst, nil
}

// --- flate codec ----------------------------------------------------------

// flateReaderPool recycles flate decompressor state across blocks; workers
// draw from it concurrently.
var flateReaderPool sync.Pool

// flateExpand appends exactly ulen inflated bytes of src to dst; a short
// stream, an inflate error, or trailing compressed data is an error.
func flateExpand(dst, src []byte, ulen int) ([]byte, error) {
	var fr io.ReadCloser
	if v := flateReaderPool.Get(); v != nil {
		fr = v.(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
			return dst, err
		}
	} else {
		fr = flate.NewReader(bytes.NewReader(src))
	}
	defer flateReaderPool.Put(fr)
	start := len(dst)
	if cap(dst) >= start+ulen {
		dst = dst[:start+ulen]
	} else {
		dst = append(dst, make([]byte, ulen)...)
	}
	if _, err := io.ReadFull(fr, dst[start:]); err != nil {
		return dst[:start], fmt.Errorf("flate: %w", err)
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return dst[:start], errors.New("flate: stream does not end at declared length")
	}
	return dst, nil
}
