// Package storage provides the checkpoint storage substrate: a binary
// codec for tensor state with integrity checksums, a CPU-memory snapshot
// store (one per simulated node), and persistent stores backed by memory
// (with optional simulated bandwidth) or the local filesystem — the stand-
// in for the distributed filesystem of the paper's clusters. Checkpointed
// modules are addressed by key-value pairs (§5.1) so both levels of the
// two-level management can retrieve them independently.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"unsafe"
)

// codecMagic guards against decoding foreign blobs.
const codecMagic = 0x4d6f4321 // "MoC!"

// EncodeTensors serializes named float32 tensors into a self-describing
// blob with a trailing CRC32 checksum. Keys are written in sorted order so
// encoding is deterministic.
func EncodeTensors(tensors map[string][]float32) []byte {
	keys := make([]string, 0, len(tensors))
	for k := range tensors {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	size := 12 // magic + count
	for _, k := range keys {
		size += 4 + len(k) + 4 + 4*len(tensors[k])
	}
	size += 4 // crc
	buf := make([]byte, 0, size)

	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put(codecMagic)
	put(uint32(len(keys)))
	for _, k := range keys {
		put(uint32(len(k)))
		buf = append(buf, k...)
		vals := tensors[k]
		put(uint32(len(vals)))
		for _, f := range vals {
			put(math.Float32bits(f))
		}
	}
	put(crc32.ChecksumIEEE(buf))
	return buf
}

// DecodeTensors parses a blob produced by EncodeTensors, verifying the
// checksum and structural integrity.
func DecodeTensors(blob []byte) (map[string][]float32, error) {
	// Minimum valid blob: magic + count + CRC (an empty tensor map).
	if len(blob) < 12 {
		return nil, fmt.Errorf("storage: blob too short (%d bytes)", len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("storage: checksum mismatch")
	}
	pos := 0
	next := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, fmt.Errorf("storage: truncated blob at offset %d", pos)
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	magic, err := next()
	if err != nil {
		return nil, err
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("storage: bad magic %#x", magic)
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float32, count)
	for i := uint32(0); i < count; i++ {
		klen, err := next()
		if err != nil {
			return nil, err
		}
		if pos+int(klen) > len(body) {
			return nil, fmt.Errorf("storage: truncated key")
		}
		key := string(body[pos : pos+int(klen)])
		pos += int(klen)
		vlen, err := next()
		if err != nil {
			return nil, err
		}
		if pos+4*int(vlen) > len(body) {
			return nil, fmt.Errorf("storage: truncated tensor %q", key)
		}
		vals := make([]float32, vlen)
		decodeFloats(vals, body[pos:pos+4*int(vlen)])
		pos += 4 * int(vlen)
		out[key] = vals
	}
	if pos != len(body) {
		return nil, fmt.Errorf("storage: %d trailing bytes", len(body)-pos)
	}
	return out, nil
}

// nativeLittleEndian reports whether this host lays float32s out in
// memory exactly as the codec writes them.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeFloats fills dst from its little-endian encoding in src
// (len(src) == 4*len(dst)). On little-endian hosts that is one memmove
// into dst's own backing array, so dst never aliases src — which may be
// an immutable cached view. Big-endian hosts convert element by element.
func decodeFloats(dst []float32, src []byte) {
	if nativeLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
