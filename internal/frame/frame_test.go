package frame

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomFrame(rng *rand.Rand, w, h, c int) *Frame {
	f := New(w, h, c)
	rng.Read(f.Pix)
	f.Index = rng.Intn(1000)
	f.PTS = int64(rng.Intn(100000))
	return f
}

func smoothFrame(rng *rand.Rand, w, h, c int) *Frame {
	f := New(w, h, c)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, ch, byte((x+y+ch*10)%256))
			}
		}
	}
	return f
}

func TestNewGeometry(t *testing.T) {
	f := New(4, 3, 2)
	if len(f.Pix) != 24 {
		t.Fatalf("pix len = %d, want 24", len(f.Pix))
	}
	if f.Index != -1 {
		t.Fatalf("fresh frame index = %d, want -1", f.Index)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1,1) did not panic")
		}
	}()
	New(0, 1, 1)
}

func TestFromPixValidatesLength(t *testing.T) {
	if _, err := FromPix(2, 2, 1, make([]byte, 3)); err == nil {
		t.Fatal("FromPix accepted short buffer")
	}
	f, err := FromPix(2, 2, 1, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.At(1, 1, 0) != 4 {
		t.Fatalf("At(1,1,0) = %d, want 4", f.At(1, 1, 0))
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	f := New(5, 4, 3)
	f.Set(2, 3, 1, 77)
	if got := f.At(2, 3, 1); got != 77 {
		t.Fatalf("At = %d, want 77", got)
	}
	// Plane addressing must agree with At.
	if f.Plane(1)[3*5+2] != 77 {
		t.Fatal("Plane addressing disagrees with At")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randomFrame(rng, 8, 8, 3)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Pix[0]++
	if f.Equal(g) {
		t.Fatal("clone shares storage")
	}
}

func TestSubRect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randomFrame(rng, 16, 12, 3)
	r, err := f.SubRect(4, 2, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 8 || r.H != 6 || r.C != 3 {
		t.Fatalf("rect geometry = %dx%dx%d", r.W, r.H, r.C)
	}
	for c := 0; c < 3; c++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 8; x++ {
				if r.At(x, y, c) != f.At(x+4, y+2, c) {
					t.Fatalf("rect pixel (%d,%d,%d) mismatch", x, y, c)
				}
			}
		}
	}
}

func TestSubRectBounds(t *testing.T) {
	f := New(8, 8, 1)
	cases := [][4]int{{-1, 0, 4, 4}, {0, -1, 4, 4}, {5, 0, 4, 4}, {0, 5, 4, 4}, {0, 0, 0, 4}, {0, 0, 9, 1}}
	for _, c := range cases {
		if _, err := f.SubRect(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("SubRect%v accepted out-of-bounds rect", c)
		}
	}
}

func TestClipValidation(t *testing.T) {
	if _, err := NewClip(nil); err == nil {
		t.Fatal("NewClip(nil) accepted")
	}
	a, b := New(4, 4, 1), New(4, 5, 1)
	if _, err := NewClip([]*Frame{a, b}); err == nil {
		t.Fatal("NewClip accepted mixed geometry")
	}
	c, err := NewClip([]*Frame{a, a.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Bytes() != 32 {
		t.Fatalf("clip len=%d bytes=%d", c.Len(), c.Bytes())
	}
	w, h, ch := c.Geometry()
	if w != 4 || h != 4 || ch != 1 {
		t.Fatalf("geometry = %d,%d,%d", w, h, ch)
	}
}

func TestClipCloneDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := NewClip([]*Frame{randomFrame(rng, 4, 4, 1), randomFrame(rng, 4, 4, 1)})
	d := c.Clone()
	d.Frames[0].Pix[0]++
	if c.Frames[0].Equal(d.Frames[0]) {
		t.Fatal("clip clone shares frame storage")
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, geom := range [][3]int{{1, 1, 1}, {7, 5, 3}, {64, 48, 3}, {33, 17, 1}} {
		f := randomFrame(rng, geom[0], geom[1], geom[2])
		enc := EncodeFrame(f)
		if len(enc) != frameSize(f) || len(enc) != 28+f.Bytes()+4 {
			t.Fatalf("%v: encoded %d bytes, want header + %d raw + crc", geom, len(enc), f.Bytes())
		}
		g, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(g) || f.Index != g.Index || f.PTS != g.PTS {
			t.Fatalf("round trip mismatch for %v", geom)
		}
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := randomFrame(rng, 8, 8, 1)
	enc := EncodeFrame(f)
	if _, err := DecodeFrame(enc[:10]); err == nil {
		t.Error("accepted truncated header")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := DecodeFrame(enc[:len(enc)-8]); err == nil {
		t.Error("accepted truncated payload")
	}
	if _, err := DecodeFrame(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("accepted trailing bytes")
	}
	// One flipped bit anywhere — header, planes or trailer — fails the
	// length or the checksum check.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("accepted a flipped bit at byte %d of %d", i, len(enc))
		}
	}
}

// TestDecodeFrameRejectsHugeGeometryClaim: a header may claim at most
// what the input actually carries; the length check runs before any
// allocation.
func TestDecodeFrameRejectsHugeGeometryClaim(t *testing.T) {
	enc := EncodeFrame(New(2, 2, 1))
	binary.LittleEndian.PutUint32(enc[4:], MaxDimension)
	binary.LittleEndian.PutUint32(enc[8:], MaxDimension)
	binary.LittleEndian.PutUint32(enc[12:], 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeFrame(enc); err == nil {
		t.Fatal("accepted a 64Ki x 64Ki x 16 claim in 36 bytes")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
		t.Fatalf("rejecting the claim allocated %d bytes", n)
	}
}

func TestClipEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := make([]*Frame, 5)
	for i := range frames {
		frames[i] = randomFrame(rng, 16, 12, 3)
	}
	c, _ := NewClip(frames)
	enc := EncodeClip(c)
	if len(enc) != ClipSize(c) {
		t.Fatalf("encoded %d bytes, ClipSize says %d", len(enc), ClipSize(c))
	}
	d, err := DecodeClip(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != c.Len() {
		t.Fatalf("len %d != %d", d.Len(), c.Len())
	}
	for i := range frames {
		if !c.Frames[i].Equal(d.Frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestDecodeClipRejectsCorruption(t *testing.T) {
	if _, err := DecodeClip([]byte{1, 2, 3}); err == nil {
		t.Error("accepted tiny buffer")
	}
	c, _ := NewClip([]*Frame{New(4, 4, 1)})
	enc := EncodeClip(c)
	if _, err := DecodeClip(enc[:len(enc)-2]); err == nil {
		t.Error("accepted truncated clip")
	}
}

func TestPSNR(t *testing.T) {
	a := New(8, 8, 1)
	b := a.Clone()
	v, err := PSNR(a, b)
	if err != nil || !math.IsInf(v, 1) {
		t.Fatalf("identical PSNR = %v, %v", v, err)
	}
	b.Pix[0] = 255
	v, err = PSNR(a, b)
	if err != nil || math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("PSNR of perturbed frame = %v, %v", v, err)
	}
	if _, err := PSNR(a, New(4, 4, 1)); err == nil {
		t.Fatal("PSNR accepted shape mismatch")
	}
}

// Property: serialization round-trips for arbitrary pixel content.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := int(wRaw%32) + 1
		h := int(hRaw%32) + 1
		fr := randomFrame(rng, w, h, 3)
		dec, err := DecodeFrame(EncodeFrame(fr))
		if err != nil {
			return false
		}
		return fr.Equal(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubRect of SubRect equals a single SubRect with summed offsets.
func TestQuickSubRectCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(x1Raw, y1Raw, x2Raw, y2Raw uint8) bool {
		base := randomFrame(rng, 32, 32, 2)
		x1, y1 := int(x1Raw%8), int(y1Raw%8)
		x2, y2 := int(x2Raw%8), int(y2Raw%8)
		mid, err := base.SubRect(x1, y1, 16, 16)
		if err != nil {
			return false
		}
		inner, err := mid.SubRect(x2, y2, 8, 8)
		if err != nil {
			return false
		}
		direct, err := base.SubRect(x1+x2, y1+y2, 8, 8)
		if err != nil {
			return false
		}
		return inner.Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	f := smoothFrame(rng, 256, 256, 3)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeFrame(f)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	f := smoothFrame(rng, 256, 256, 3)
	enc := EncodeFrame(f)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}
