package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Serialization of frames and clips for the storage tier. In memory the
// cheapest-to-read form is no encoding at all, so a stored frame is its
// raw planes behind a fixed header, followed by a checksum:
//
//	"SFM2" | W | H | C | Index (u32 each) | PTS (u64) | planes | CRC32C (u32)
//
// Integers are little-endian and the CRC32C covers header and planes.
// Decoding checks the exact length before allocating and the checksum
// before trusting a byte; compression happens only where bytes leave RAM
// (the store's spill path).

const (
	frameMagic = 0x53464d32 // "SFM2"
	clipMagic  = 0x53434c31 // "SCL1"
	// MaxDimension bounds frame width and height. Parsers of stored
	// frames and encoded video reject larger headers before allocating.
	MaxDimension = 1 << 16
	// maxChannels bounds the plane count of a stored frame.
	maxChannels = 16

	frameHeaderLen = 28
	frameCRCLen    = 4
	// minFrameLen is the smallest valid encoded frame (one 1x1x1 sample).
	minFrameLen = frameHeaderLen + 1 + frameCRCLen
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the fixed metadata of an encoded frame.
type Header struct {
	W, H, C, Index int
	PTS            int64
}

// frameSize returns the encoded size of f.
func frameSize(f *Frame) int { return frameHeaderLen + len(f.Pix) + frameCRCLen }

// appendFrame appends the encoding of f to dst.
func appendFrame(dst []byte, f *Frame) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.C))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Index)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.PTS))
	dst = append(dst, f.Pix...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// EncodeFrame serializes f losslessly into a buffer of exact size.
func EncodeFrame(f *Frame) []byte {
	return appendFrame(make([]byte, 0, frameSize(f)), f)
}

// parseFrame validates an encoded frame — magic, geometry, exact length
// and checksum — and returns its header and its planes. The planes alias
// data: nothing is copied.
func parseFrame(data []byte) (Header, []byte, error) {
	var h Header
	if len(data) < frameHeaderLen {
		return h, nil, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != frameMagic {
		return h, nil, fmt.Errorf("frame: bad magic %#x", m)
	}
	w := binary.LittleEndian.Uint32(data[4:])
	ht := binary.LittleEndian.Uint32(data[8:])
	c := binary.LittleEndian.Uint32(data[12:])
	if w == 0 || ht == 0 || c == 0 || w > MaxDimension || ht > MaxDimension || c > maxChannels {
		return h, nil, fmt.Errorf("frame: implausible geometry %dx%dx%d", w, ht, c)
	}
	n := int(w) * int(ht) * int(c)
	if len(data) != frameHeaderLen+n+frameCRCLen {
		return h, nil, fmt.Errorf("frame: %d bytes for a %dx%dx%d frame (want %d)", len(data), w, ht, c, frameHeaderLen+n+frameCRCLen)
	}
	body := data[:frameHeaderLen+n]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(data[frameHeaderLen+n:]); got != want {
		return h, nil, fmt.Errorf("frame: checksum mismatch (%#x != %#x)", got, want)
	}
	h = Header{
		W: int(w), H: int(ht), C: int(c),
		Index: int(int32(binary.LittleEndian.Uint32(data[16:]))),
		PTS:   int64(binary.LittleEndian.Uint64(data[20:])),
	}
	return h, body[frameHeaderLen:], nil
}

// DecodeFrame reverses EncodeFrame into an exclusively owned (pooled)
// frame.
func DecodeFrame(data []byte) (*Frame, error) {
	h, pix, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	return copyParsed(h, pix), nil
}

// copyParsed copies a parsed frame into a pooled frame; the copy
// overwrites every sample NewPooled leaves undefined.
func copyParsed(h Header, pix []byte) *Frame {
	f := NewPooled(h.W, h.H, h.C)
	f.Index, f.PTS = h.Index, h.PTS
	copy(f.Pix, pix)
	return f
}

// ClipSize returns the encoded size of c.
func ClipSize(c *Clip) int {
	n := 8
	for _, f := range c.Frames {
		n += 4 + frameSize(f)
	}
	return n
}

// AppendClip appends the encoding of c to dst: a count header followed
// by length-prefixed frames.
func AppendClip(dst []byte, c *Clip) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, clipMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Frames)))
	for _, f := range c.Frames {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(frameSize(f)))
		dst = appendFrame(dst, f)
	}
	return dst
}

// EncodeClip serializes every frame of a clip into one buffer of exact
// size.
func EncodeClip(c *Clip) []byte {
	return AppendClip(make([]byte, 0, ClipSize(c)), c)
}

// WalkClip validates an encoded clip — every frame's header, length and
// checksum — and calls fn with each frame's header and planes (aliasing
// data). It copies no pixels.
func WalkClip(data []byte, fn func(i int, h Header, pix []byte)) error {
	if len(data) < 8 || binary.LittleEndian.Uint32(data[0:]) != clipMagic {
		return fmt.Errorf("frame: bad clip header")
	}
	n := binary.LittleEndian.Uint32(data[4:])
	if n == 0 || uint64(n) > uint64(len(data)-8)/(4+minFrameLen) {
		return fmt.Errorf("frame: implausible clip length %d for %d bytes", n, len(data))
	}
	off := 8
	for i := 0; i < int(n); i++ {
		if off+4 > len(data) {
			return fmt.Errorf("frame: clip truncated at frame %d", i)
		}
		sz := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if sz > len(data)-off {
			return fmt.Errorf("frame: clip frame %d payload truncated", i)
		}
		h, pix, err := parseFrame(data[off : off+sz])
		if err != nil {
			return fmt.Errorf("frame: clip frame %d: %w", i, err)
		}
		fn(i, h, pix)
		off += sz
	}
	if off != len(data) {
		return fmt.Errorf("frame: %d trailing bytes after clip", len(data)-off)
	}
	return nil
}

// DecodeClip reverses EncodeClip.
func DecodeClip(data []byte) (*Clip, error) {
	var frames []*Frame
	err := WalkClip(data, func(_ int, h Header, pix []byte) {
		frames = append(frames, copyParsed(h, pix))
	})
	if err != nil {
		return nil, err
	}
	return NewClip(frames)
}

// PSNR computes peak signal-to-noise ratio between two same-shape frames.
// Identical frames yield +Inf.
func PSNR(a, b *Frame) (float64, error) {
	if !a.SameShape(b) {
		return 0, fmt.Errorf("frame: PSNR shape mismatch %dx%dx%d vs %dx%dx%d", a.W, a.H, a.C, b.W, b.H, b.C)
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1), nil
	}
	mse := sum / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse), nil
}
