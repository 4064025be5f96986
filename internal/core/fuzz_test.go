package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sand/internal/frame"
	"sand/internal/vfs"
)

// FuzzDecodeBatch feeds arbitrary bytes to the three parsers a batch
// payload meets: DecodeClip on its own, DecodeBatch (which calls it per
// clip) and the xattr header walk. None may panic or decode more pixels
// than the input carries; whatever decodes must re-encode to the same
// bytes, and the xattr walk must accept every batch DecodeBatch accepts
// and agree with it.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	clip := func(n, w, h int) *frame.Clip {
		fs := make([]*frame.Frame, n)
		for i := range fs {
			fs[i] = frame.New(w, h, 3)
			rng.Read(fs[i].Pix)
			fs[i].Index, fs[i].PTS = i, int64(i*33)
		}
		c, _ := frame.NewClip(fs)
		return c
	}
	two, _ := EncodeBatch(&frame.Batch{Clips: []*frame.Clip{clip(2, 3, 2), clip(2, 3, 2)}, Labels: []string{"a", "bc"}, Epoch: 1, Iteration: 4})
	f.Add(two)
	one, _ := EncodeBatch(&frame.Batch{Clips: []*frame.Clip{clip(1, 1, 1)}})
	f.Add(one)
	f.Add(frame.EncodeClip(clip(3, 2, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := frame.DecodeClip(data); err == nil {
			if c.Bytes() > len(data) {
				t.Fatalf("decoded %d pixel bytes from %d input bytes", c.Bytes(), len(data))
			}
			if !bytes.Equal(frame.EncodeClip(c), data) {
				t.Fatal("re-encoding a decoded clip changed its bytes")
			}
		}
		xattrs, xerr := batchXattrs(vfs.Path{}, data)
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if b.Bytes() > len(data) {
			t.Fatalf("decoded %d pixel bytes from %d input bytes", b.Bytes(), len(data))
		}
		enc, err := EncodeBatch(b)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding a decoded batch changed its bytes (err %v)", err)
		}
		if xerr != nil {
			t.Fatalf("xattr walk rejected a batch DecodeBatch accepted: %v", xerr)
		}
		if xattrs["user.sand.clips"] != strconv.Itoa(b.Len()) || xattrs["user.sand.labels"] != strings.Join(b.Labels, ",") ||
			xattrs["user.sand.frames_per_clip"] != strconv.Itoa(b.Clips[0].Len()) {
			t.Fatalf("xattrs %v disagree with the decoded batch", xattrs)
		}
	})
}
