package core

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sand/internal/config"
	"sand/internal/frame"
	"sand/internal/vfs"
)

// encodeSFM1 writes f in the former stored-frame format: a 28-byte
// "SFM1" header and a zlib stream of Sub-filtered rows.
func encodeSFM1(t *testing.T, f *frame.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := make([]byte, 28)
	binary.LittleEndian.PutUint32(hdr[0:], 0x53464d31)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.W))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.H))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.C))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(f.Index)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.PTS))
	buf.Write(hdr)
	zw := zlib.NewWriter(&buf)
	row := make([]byte, f.W)
	for c := 0; c < f.C; c++ {
		plane := f.Plane(c)
		for y := 0; y < f.H; y++ {
			prev := byte(0)
			for x, v := range plane[y*f.W : (y+1)*f.W] {
				row[x], prev = v-prev, v
			}
			zw.Write(row)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnreadableCachedFramesAreRecomputed: cached frames in a CacheDir
// that no longer decode — written in the former zlib format, or with one
// flipped byte — are deleted, counted in core.corrupt_objects and
// recomputed; the batch comes out byte-identical to a clean run.
func TestUnreadableCachedFramesAreRecomputed(t *testing.T) {
	ds := miniDataset(t, 3)
	open := func(dir string) *Service {
		s, err := New(Options{
			Tasks:       []*config.Task{miniTask(t, "train")},
			Dataset:     ds,
			ChunkEpochs: 2,
			TotalEpochs: 2,
			MemBudget:   64 << 20,
			CacheDir:    dir,
			Workers:     2,
			Coordinate:  true,
			Seed:        9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	readBatch := func(s *Service) []byte {
		fsys := s.FS()
		fd, err := fsys.Open(vfs.BatchPath("train", 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer fsys.Close(fd)
		data, err := fsys.ReadAll(fd)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	clean := open("")
	want := readBatch(clean)
	clean.Close()

	for name, corrupt := range map[string]func(raw []byte) []byte{
		"sfm1": func(raw []byte) []byte {
			f, err := frame.DecodeFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			return encodeSFM1(t, f)
		},
		"flipped-byte": func(raw []byte) []byte {
			bad := append([]byte(nil), raw...)
			bad[len(bad)/2] ^= 0x01
			return bad
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(dir)
			readBatch(s)
			s.Close()
			// Rewrite every persisted frame object in its unreadable form,
			// as an uncompressed .obj in place of a compressed .objz twin.
			n := 0
			err := filepath.WalkDir(filepath.Join(dir, "obj"), func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				if strings.HasSuffix(path, ".objz") {
					if raw, err = io.ReadAll(flate.NewReader(bytes.NewReader(raw))); err != nil {
						return err
					}
					if err := os.Remove(path); err != nil {
						return err
					}
					path = strings.TrimSuffix(path, "z")
				}
				n++
				return os.WriteFile(path, corrupt(raw), 0o644)
			})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("nothing was persisted")
			}
			s = open(dir)
			defer s.Close()
			if got := readBatch(s); !bytes.Equal(got, want) {
				t.Fatal("batch over unreadable cached frames differs from a clean run")
			}
			if got := s.corruptObjects.Load(); got == 0 {
				t.Fatalf("core.corrupt_objects = 0 after reading over %d unreadable objects", n)
			}
		})
	}
}
