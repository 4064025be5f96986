package frame

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to DecodeFrame. Corrupt input
// must yield an error — never a panic, and never a frame larger than the
// input carries — and whatever decodes must re-encode to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	f.Add(EncodeFrame(randomFrame(rng, 7, 5, 3)))
	f.Add(EncodeFrame(New(1, 1, 1)))
	huge := EncodeFrame(New(2, 2, 1))
	binary.LittleEndian.PutUint32(huge[4:], MaxDimension)
	binary.LittleEndian.PutUint32(huge[8:], MaxDimension)
	f.Add(huge)
	f.Add([]byte("1MFS\x02\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00")) // header of the former zlib format
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if g.Bytes() > len(data) {
			t.Fatalf("decoded %d pixel bytes from %d input bytes", g.Bytes(), len(data))
		}
		if !bytes.Equal(EncodeFrame(g), data) {
			t.Fatal("re-encoding a decoded frame changed its bytes")
		}
	})
}
