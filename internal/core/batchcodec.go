// Package core implements the SAND service: it compiles task configs into
// materialization plans (internal/graph), executes them with a
// priority-scheduled worker pool (internal/sched) over the real codec and
// augmentation library, manages training objects in the storage tier
// (internal/storage), and exposes every intermediate as a view through the
// POSIX-shaped filesystem (internal/vfs). Every service reports into an
// observability registry (internal/obs) — its own via Options.Obs, or
// the process-wide default — covering batch/sample/frame trace spans,
// view-read latency histograms and GOP-cache/engine counters.
package core

import (
	"encoding/binary"
	"fmt"

	"sand/internal/frame"
)

const batchMagic = 0x53424131 // "SBA1"

// batchHeaderLen is the fixed header: magic, clip count, epoch, iteration.
const batchHeaderLen = 16

// EncodeBatch serializes a training batch into one buffer of exact size:
// a count header followed by length-prefixed clip payloads and their
// labels. This is the byte stream a read() on a batch view returns.
func EncodeBatch(b *frame.Batch) ([]byte, error) {
	if len(b.Clips) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(b.Labels) != 0 && len(b.Labels) != len(b.Clips) {
		return nil, fmt.Errorf("core: %d labels for %d clips", len(b.Labels), len(b.Clips))
	}
	labels := b.Labels
	if len(labels) == 0 {
		labels = make([]string, len(b.Clips))
	}
	size := batchHeaderLen
	for i, clip := range b.Clips {
		size += 8 + frame.ClipSize(clip) + len(labels[i])
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, batchMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Clips)))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Epoch))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Iteration))
	for i, clip := range b.Clips {
		out = binary.LittleEndian.AppendUint32(out, uint32(frame.ClipSize(clip)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(labels[i])))
		out = frame.AppendClip(out, clip)
		out = append(out, labels[i]...)
	}
	return out, nil
}

// walkBatch checks a serialized batch's framing and calls fn with each
// clip's encoded bytes and label, both aliasing data. It returns the
// batch's epoch and iteration. Clip payloads are left to fn to check.
func walkBatch(data []byte, fn func(i int, clip, label []byte) error) (epoch, iter int, err error) {
	if len(data) < batchHeaderLen || binary.LittleEndian.Uint32(data[0:]) != batchMagic {
		return 0, 0, fmt.Errorf("core: bad batch header")
	}
	n := binary.LittleEndian.Uint32(data[4:])
	if n == 0 || n > 1<<16 || uint64(n) > uint64(len(data)-batchHeaderLen)/8 {
		return 0, 0, fmt.Errorf("core: implausible clip count %d for %d bytes", n, len(data))
	}
	off := batchHeaderLen
	for i := 0; i < int(n); i++ {
		if off+8 > len(data) {
			return 0, 0, fmt.Errorf("core: batch truncated at clip %d", i)
		}
		clipLen := uint64(binary.LittleEndian.Uint32(data[off:]))
		labelLen := uint64(binary.LittleEndian.Uint32(data[off+4:]))
		off += 8
		if clipLen+labelLen > uint64(len(data)-off) {
			return 0, 0, fmt.Errorf("core: batch clip %d payload truncated", i)
		}
		clip := data[off : off+int(clipLen)]
		off += int(clipLen)
		label := data[off : off+int(labelLen)]
		off += int(labelLen)
		if err := fn(i, clip, label); err != nil {
			return 0, 0, fmt.Errorf("core: batch clip %d: %w", i, err)
		}
	}
	if off != len(data) {
		return 0, 0, fmt.Errorf("core: %d trailing bytes after batch", len(data)-off)
	}
	return int(binary.LittleEndian.Uint32(data[8:])), int(binary.LittleEndian.Uint32(data[12:])), nil
}

// DecodeBatch reverses EncodeBatch.
func DecodeBatch(data []byte) (*frame.Batch, error) {
	b := &frame.Batch{}
	var err error
	b.Epoch, b.Iteration, err = walkBatch(data, func(_ int, enc, label []byte) error {
		clip, err := frame.DecodeClip(enc)
		if err != nil {
			return err
		}
		b.Clips = append(b.Clips, clip)
		b.Labels = append(b.Labels, string(label))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}
