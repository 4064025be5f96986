package codec

import (
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"testing"

	"sand/internal/frame"
)

// oversizedContainer is a 60-byte, otherwise well-formed container whose
// header claims a w x h x c frame 0 backed by an 11-byte payload.
func oversizedContainer(w, h, c uint32) []byte {
	const payload = 11
	data := make([]byte, headerSize+indexEntrySize+4+payload)
	binary.LittleEndian.PutUint32(data[0:], containerMagic)
	binary.LittleEndian.PutUint32(data[4:], w)
	binary.LittleEndian.PutUint32(data[8:], h)
	binary.LittleEndian.PutUint32(data[12:], c)
	binary.LittleEndian.PutUint32(data[16:], 30) // FPS
	binary.LittleEndian.PutUint32(data[20:], 1)  // GOP
	binary.LittleEndian.PutUint32(data[24:], 1)  // frame count
	binary.LittleEndian.PutUint64(data[28:], uint64(len(data)))
	binary.LittleEndian.PutUint64(data[headerSize:], headerSize+indexEntrySize)
	data[headerSize+8] = byte(IFrame)
	binary.LittleEndian.PutUint32(data[headerSize+indexEntrySize:], payload)
	return data
}

// TestParseRejectsOversizedHeader: a tiny container must not claim a
// frame larger than frame.MaxDimension allows, or larger than its frame 0
// payload can inflate to; NewDecoder would otherwise allocate W*H*C bytes
// on the header's word.
func TestParseRejectsOversizedHeader(t *testing.T) {
	for _, geom := range [][3]uint32{
		{1 << 20, 1 << 20, 16},                       // beyond MaxDimension
		{frame.MaxDimension, frame.MaxDimension, 16}, // beyond the payload's inflation bound
		{4096, 4, 1}, // 16 KiB from 11 bytes: still too much
	} {
		data := oversizedContainer(geom[0], geom[1], geom[2])
		if len(data) != 60 {
			t.Fatalf("container is %d bytes, want 60", len(data))
		}
		if _, err := Parse(data); err == nil {
			t.Errorf("Parse accepted a %dx%dx%d header with an 11-byte frame 0", geom[0], geom[1], geom[2])
		}
	}
}

// TestParseAcceptsHighlyCompressibleFrames: the inflation bound must not
// reject real streams at deflate's best ratio (all-zero frames).
func TestParseAcceptsHighlyCompressibleFrames(t *testing.T) {
	clip, err := frame.NewClip([]*frame.Frame{frame.New(1024, 1024, 3), frame.New(1024, 1024, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
		v, err := Encode(clip, EncodeParams{GOP: 2, FPS: 30, Level: level})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(v.Data); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

// FuzzParseDecode feeds arbitrary bytes to Parse and decodes every frame
// of whatever parses. Corrupt input must yield errors — never a panic,
// and never an allocation sized by a header the payload cannot back.
func FuzzParseDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	f.Add(encodeHelper(f, syntheticClip(rng, 6, 8, 8, 3), 3).Data)
	f.Add(oversizedContainer(1<<20, 1<<20, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Parse(data)
		if err != nil {
			return
		}
		dec := NewDecoder(v, nil)
		defer dec.Close()
		for i := 0; i < v.FrameCount; i++ {
			if f, err := dec.Frame(i); err == nil && (f.W != v.W || f.H != v.H || f.C != v.C) {
				t.Fatalf("frame %d is %dx%dx%d in a %dx%dx%d container", i, f.W, f.H, f.C, v.W, v.H, v.C)
			}
		}
	})
}
