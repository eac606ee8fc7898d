package trace

import (
	"bytes"
	"compress/flate"
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
// One codec transforms the payload: CodecFlate, stdlib compress/flate
// (DEFLATE). Codec byte 1 is retired: it named a built-in LZ77 that was
// neither faster end to end than storing blocks raw nor smaller than
// flate, and a frame carrying it is rejected as an unknown codec.

// Codec identifies a per-block compression algorithm. The zero value is
// CodecNone (stored raw).
type Codec byte

const (
	// CodecNone stores block payloads raw.
	CodecNone Codec = 0
	// CodecFlate compresses blocks with stdlib DEFLATE. Its wire byte stays
	// 2, as written before byte 1 was retired.
	CodecFlate Codec = 2
)

// String returns the codec's wire-stable name.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", byte(c))
}

// Codecs lists every supported codec, for CLIs and tests that sweep them.
func Codecs() []Codec { return []Codec{CodecNone, CodecFlate} }

// known reports whether c is a codec this package reads and writes.
func (c Codec) known() bool { return c == CodecNone || c == CodecFlate }

// ParseCodec maps a codec name ("none", "flate") to its Codec.
func ParseCodec(s string) (Codec, error) {
	for _, c := range Codecs() {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return CodecNone, fmt.Errorf("trace: unknown codec %q (want none or flate)", s)
}

// minCompressLen is the smallest block the writer bothers compressing;
// below this the framing overhead dwarfs any win.
const minCompressLen = 64

// expandBlock inflates a compressed block frame's stored payload into a
// pooled buffer of exactly bf.ulen bytes. The caller owns the returned
// buffer (recycle with putPayloadBuf); bf.payload is left untouched. The
// declared uncompressed length was bounded to maxBlockLen when the frame
// was read, so a hostile header cannot force a giant allocation here.
// readBlockFrame admits only the two known codecs, so a payload that is
// not stored raw is a flate stream. Failures are ErrMalformed at the frame
// offset: the stored bytes passed their CRC, so a stream that does not
// inflate cleanly was written wrong.
func expandBlock(bf *blockFrame) ([]byte, error) {
	dst, err := flateExpand(getPayloadBuf(bf.ulen), bf.payload, bf.ulen)
	if err != nil {
		putPayloadBuf(dst)
		return nil, formatErr(bf.frameOff, ErrMalformed, "block decompress (%s): %v", bf.codec, err)
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
