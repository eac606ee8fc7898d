package trace

import (
	"bufio"
	"io"
	"os"
)

// This file implements the footer probe: a frame walk that recovers the
// static-count footer of a stream without decoding any events. The
// framed format makes this cheap — every block frame declares its stored
// payload length up front, so the walk reads the frame headers, skips the
// payload bytes, and lands on the CRC-protected footer. The probe is what
// lets a single decode serve an analysis that needs the per-PC execution
// counts *before* the events (the model's write-once classification): the
// counts come from the probe, and the one real decode feeds every
// observer.
//
// The probe verifies the header and footer CRCs (they are what it
// consumes) but deliberately does not verify block payload CRCs or decode
// events — that is the decode pass's job, and duplicating it here would
// defeat the point. A stream whose frame structure is intact but whose
// payload bytes are damaged therefore passes the probe and fails in the
// decode pass, with the typed error the reader reports.

// FooterInfo is what ScanFooter recovers from a stream: the header fields
// plus the footer's declared totals.
type FooterInfo struct {
	// Name and NumStatic come from the (CRC-verified) header.
	Name      string
	NumStatic int
	// Total is the footer's declared event count.
	Total uint64
	// Counts is the per-PC execution count table from the footer.
	Counts []uint64
}

// ScanFooter walks a stream's frame structure — header, block frame
// headers (payloads skipped, not decoded), footer, trailer magic — and
// returns the footer's static counts. Failures carry the package's typed
// taxonomy: an unsupported version and structural damage report
// ErrMalformed, a stream that ends mid-walk reports ErrTruncated,
// and a corrupt header or footer reports ErrChecksum. Block payload
// damage is invisible to the probe by design; see the file comment.
func ScanFooter(r io.Reader) (FooterInfo, error) {
	cr := &countingReader{br: bufio.NewReaderSize(r, 1<<16)}
	h, err := readHeader(cr)
	if err != nil {
		return FooterInfo{}, err
	}
	info := FooterInfo{Name: h.name, NumStatic: h.numStatic}
	for {
		marker, _, err := scanMarker(cr, false)
		if err != nil {
			return info, err
		}
		if marker == countMarker {
			ff, err := readFooterFrame(cr, h.numStatic)
			if err != nil {
				return info, err
			}
			if err := readTrailerMagic(cr); err != nil {
				return info, err
			}
			info.Total, info.Counts = ff.total, ff.counts
			return info, nil
		}
		if err := skipBlockFrame(cr, marker == blockMarkerC); err != nil {
			return info, err
		}
	}
}

// skipBlockFrame consumes one block frame after its marker, validating the
// declared lengths exactly as readBlockFrame does but discarding the
// payload bytes instead of retaining them.
func skipBlockFrame(cr *countingReader, compressed bool) error {
	bf, err := readBlockFrame(cr, compressed)
	if err != nil {
		return err
	}
	putPayloadBuf(bf.payload)
	return nil
}

// ScanFooterFile runs the footer probe over a trace file.
func ScanFooterFile(path string) (FooterInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return FooterInfo{}, err
	}
	defer f.Close()
	return ScanFooter(f)
}
