package trace

import (
	"bytes"
	"errors"
	"testing"
)

// allCodecs is the codec sweep for footer tests: the uncompressed format
// plus every compressed codec.
var allCodecs = append([]Codec{CodecNone}, compressedCodecs...)

// TestScanFooterRoundTrip checks the probe recovers exactly the header
// fields and static counts a full decode would, across codecs and with
// multiple block frames to walk.
func TestScanFooterRoundTrip(t *testing.T) {
	orig := bigTrace(t, 2000)
	for _, codec := range allCodecs {
		var buf bytes.Buffer
		if err := WriteAll(&buf, orig, BlockBytes(512), Compression(codec)); err != nil {
			t.Fatal(err)
		}
		info, err := ScanFooter(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: probe failed: %v", codec, err)
		}
		if info.Name != orig.Name || info.NumStatic != orig.NumStatic {
			t.Errorf("%s: header: name=%q static=%d", codec, info.Name, info.NumStatic)
		}
		if info.Total != uint64(orig.Len()) {
			t.Errorf("%s: total %d, want %d", codec, info.Total, orig.Len())
		}
		if len(info.Counts) != orig.NumStatic {
			t.Fatalf("%s: %d counts, want %d", codec, len(info.Counts), orig.NumStatic)
		}
		for pc, c := range orig.StaticCount {
			if info.Counts[pc] != c {
				t.Errorf("%s: count pc %d: %d want %d", codec, pc, info.Counts[pc], c)
			}
		}
	}
}

func TestScanFooterFile(t *testing.T) {
	path := t.TempDir() + "/trace.dpg"
	orig := sampleTrace()
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	info, err := ScanFooterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "sample" || info.Total != uint64(orig.Len()) {
		t.Errorf("probe: name=%q total=%d", info.Name, info.Total)
	}
	if _, err := ScanFooterFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}

// TestScanFooterTruncation chops the stream at every point past the
// header; the probe must fail with a typed taxonomy error — never a clean
// return — because the footer it exists to find is gone.
func TestScanFooterTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, bigTrace(t, 500), BlockBytes(512)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(full) - 1; cut > 0; cut-- {
		_, err := ScanFooter(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: truncated stream probed cleanly", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut=%d: untyped error %v", cut, err)
		}
	}
}

// TestScanFooterFlipMatrix flips one byte at a stride of offsets and
// checks the probe's integrity contract: whenever the probe succeeds, the
// FooterInfo it returns is exactly the original (header and footer are
// CRC-verified, so a flip that survives must lie in a block payload), and
// at least some flips must survive the probe while failing a full decode
// — the documented no-payload-verification design.
func TestScanFooterFlipMatrix(t *testing.T) {
	orig := bigTrace(t, 1000)
	for _, codec := range allCodecs {
		var buf bytes.Buffer
		if err := WriteAll(&buf, orig, BlockBytes(512), Compression(codec)); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		probedDamage := 0
		for off := 0; off < len(full); off++ {
			data := bytes.Clone(full)
			data[off] ^= 0xFF
			info, err := ScanFooter(bytes.NewReader(data))
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("%s off=%d: untyped probe error %v", codec, off, err)
				}
				continue
			}
			if info.Name != orig.Name || info.NumStatic != orig.NumStatic || info.Total != uint64(orig.Len()) {
				t.Fatalf("%s off=%d: probe succeeded with wrong header/totals: %+v", codec, off, info)
			}
			for pc, c := range orig.StaticCount {
				if info.Counts[pc] != c {
					t.Fatalf("%s off=%d: probe succeeded with wrong count at pc %d", codec, off, pc)
				}
			}
			if _, err := ReadAll(bytes.NewReader(data)); err != nil {
				probedDamage++
			}
		}
		if probedDamage == 0 {
			t.Errorf("%s: no flip passed the probe while failing decode; payload-skip contract untested", codec)
		}
	}
}
