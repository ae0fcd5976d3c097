// Package persist gives the embedded pgdb engine kdb+-style durable
// storage: a date-partitioned splayed on-disk layout (one directory per
// partition, one file per column) written straight from the columnar
// store's segments, a write-ahead log for DML with fsync batching, crash
// recovery via replay-on-open, and bounded-memory eviction that drops cold
// segments and reloads them on demand through the engine's segment read
// path.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"hyperq/internal/pgdb"
)

// hostLE reports whether the host stores multi-byte integers little-endian,
// which is the on-disk byte order; on such hosts typed vectors decode by
// bulk copy instead of a per-element loop.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Value domain: pgdb cells are nil, int64, float64, string or bool — the
// SQL literal domain. Everything on disk (WAL rows, vkAny cells, zone
// bounds) uses one tagged encoding for them.

const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagStr
	tagBool
)

func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int64:
		buf = append(buf, tagInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(x)), nil
	case float64:
		buf = append(buf, tagFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		buf = append(buf, tagStr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		return append(buf, x...), nil
	case bool:
		buf = append(buf, tagBool)
		if x {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	default:
		return nil, fmt.Errorf("persist: value %T outside the storable domain", v)
	}
}

func readValue(b []byte, off int) (any, int, error) {
	if off >= len(b) {
		return nil, 0, fmt.Errorf("persist: truncated value")
	}
	tag := b[off]
	off++
	switch tag {
	case tagNil:
		return nil, off, nil
	case tagInt:
		if off+8 > len(b) {
			return nil, 0, fmt.Errorf("persist: truncated int")
		}
		return int64(binary.LittleEndian.Uint64(b[off:])), off + 8, nil
	case tagFloat:
		if off+8 > len(b) {
			return nil, 0, fmt.Errorf("persist: truncated float")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off + 8, nil
	case tagStr:
		if off+4 > len(b) {
			return nil, 0, fmt.Errorf("persist: truncated string header")
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+n > len(b) {
			return nil, 0, fmt.Errorf("persist: truncated string")
		}
		return string(b[off : off+n]), off + n, nil
	case tagBool:
		if off >= len(b) {
			return nil, 0, fmt.Errorf("persist: truncated bool")
		}
		return b[off] != 0, off + 1, nil
	default:
		return nil, 0, fmt.Errorf("persist: unknown value tag %d", tag)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(b []byte, off int) (string, int, error) {
	if off+4 > len(b) {
		return "", 0, fmt.Errorf("persist: truncated string header")
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+n > len(b) {
		return "", 0, fmt.Errorf("persist: truncated string")
	}
	return string(b[off : off+n]), off + n, nil
}

// --- column files ---
//
// One file per (partition, column), holding the partition's slice of that
// column as a sequence of chunks. A chunk is the part of one global store
// segment that falls inside the partition, so a segment reload splices the
// chunks with its segment index — possibly from two partitions when a
// partition boundary crosses a segment. Layout:
//
//	"HQP2" | u32 chunkCount
//	chunk directory: chunkCount × { u32 segIdx | u32 startInSeg | u32 rows |
//	                                u64 offset | u64 size }
//	chunk payloads (offset is absolute within the file)
//
// chunk payload:
//
//	u8 kind | u32 rows | u8 nullEnc | null section | u8 dataEnc | data
//
// null section (bits re-based to chunk-local positions):
//
//	nullNone: nothing (no null rows in the chunk)
//	nullRaw:  u32 words | words × u64
//	nullRLE:  u32 runs  | runs × { u32 start | u32 len } of set-bit ranges
//
// data section:
//
//	dataRaw — the kind's natural layout:
//	  vkInt/vkFloat: rows × u64 (LE; floats as IEEE bits)
//	  vkBool:        rows bytes
//	  vkStr:         (rows+1) × u64 offsets | bytes
//	  vkAny:         (rows+1) × u64 offsets | tagged cells
//	  vkEmpty:       nothing
//	dataForInt  (vkInt):  u64 frame | u8 width | rows × width bits
//	dataDeltaInt(vkInt):  u64 first | u64 frame | u8 width | (rows-1) × width bits
//	dataDictStr (vkStr):  u32 dictN | dictN × { u32 len | bytes } |
//	                      u8 width | rows × width bits (dict indexes)
//	dataRLEBool (vkBool): u32 runs | runs × { u8 val | u32 len }
//
// The writer picks each chunk's null and data encodings independently, the
// smallest candidate winning and raw on ties; floats and boxed cells have
// only the raw layout. The decoder accepts every encoding, so a checkpoint
// whose chunks are all raw reads the same as one whose chunks are not.
// Typed vectors, null bitmaps and (manifest-held) zone maps round-trip
// without re-inference.

var colMagic = [4]byte{'H', 'Q', 'P', '2'}

// colDirEntry is the byte size of one chunk directory entry.
const colDirEntry = 4 + 4 + 4 + 8 + 8

// null-section encodings
const (
	nullNone byte = iota
	nullRaw
	nullRLE
)

// data-section encodings
const (
	dataRaw byte = iota
	dataForInt
	dataDeltaInt
	dataDictStr
	dataRLEBool
)

// vec kinds mirror pgdb's storage classes (persist only sees them as the
// Kind byte of pgdb.VecData).
const (
	vkEmpty uint8 = iota
	vkInt
	vkFloat
	vkStr
	vkBool
	vkAny
)

// chunkRef is one chunk directory entry.
type chunkRef struct {
	SegIdx     int
	StartInSeg int
	Rows       int
	Offset     int64
	Size       int64
}

// encodeChunk serializes rows [lo, hi) of one segment's vector. Int, string
// and bool sections (and null bitmaps) use the lightweight encodings above
// whenever they come out smaller than raw; floats and boxed cells stay raw.
func encodeChunk(v pgdb.VecData, lo, hi int) ([]byte, error) {
	rows := hi - lo
	buf := make([]byte, 0, 16+rows*8)
	buf = append(buf, v.Kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))

	// re-base null bits to chunk-local positions
	words := make([]uint64, (rows+63)/64)
	anyNull := false
	for i := 0; i < rows; i++ {
		gi := lo + i
		w := gi >> 6
		if w < len(v.Nulls) && v.Nulls[w]&(1<<(uint(gi)&63)) != 0 {
			words[i>>6] |= 1 << (uint(i) & 63)
			anyNull = true
		}
	}
	if !anyNull {
		buf = append(buf, nullNone)
	} else if rle := encodeNullRLE(words, rows); len(rle) < 4+len(words)*8 {
		buf = append(buf, nullRLE)
		buf = append(buf, rle...)
	} else {
		buf = append(buf, nullRaw)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(words)))
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}

	// the raw layout is built only when it is the smaller one; its length
	// is computed without building it
	if enc, body := encodeDataCompressed(v, lo, hi); body != nil && len(body) < rawLen(v, lo, hi) {
		buf = append(buf, enc)
		return append(buf, body...), nil
	}
	raw, err := encodeDataRaw(v, lo, hi)
	if err != nil {
		return nil, err
	}
	buf = append(buf, dataRaw)
	return append(buf, raw...), nil
}

// rawLen is len(encodeDataRaw(v, lo, hi)) for the kinds with a compressed
// candidate — integers, booleans and strings — computed without building
// the layout. Other kinds report -1: there is nothing to compare.
func rawLen(v pgdb.VecData, lo, hi int) int {
	rows := hi - lo
	switch v.Kind {
	case vkInt:
		return 8 * rows
	case vkBool:
		return rows
	case vkStr:
		n := 8 * (rows + 1) // the offsets, then the non-NULL cells' bytes
		for i := lo; i < hi; i++ {
			if !nullAt(v.Nulls, i) {
				n += len(v.Dict[v.Codes[i]])
			}
		}
		return n
	}
	return -1
}

// encodeDataRaw serializes the data section in the kind's natural layout.
func encodeDataRaw(v pgdb.VecData, lo, hi int) ([]byte, error) {
	rows := hi - lo
	var buf []byte
	switch v.Kind {
	case vkEmpty:
	case vkInt:
		buf = make([]byte, 0, rows*8)
		for _, x := range v.Ints[lo:hi] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case vkFloat:
		buf = make([]byte, 0, rows*8)
		for _, f := range v.Floats[lo:hi] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	case vkBool:
		buf = make([]byte, 0, rows)
		for _, b := range v.Bools[lo:hi] {
			if b {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	case vkStr:
		offs := make([]uint64, 0, rows+1)
		var data []byte
		for i := lo; i < hi; i++ {
			offs = append(offs, uint64(len(data)))
			if !nullAt(v.Nulls, i) {
				data = append(data, v.Dict[v.Codes[i]]...)
			}
		}
		offs = append(offs, uint64(len(data)))
		buf = make([]byte, 0, len(offs)*8+len(data))
		for _, o := range offs {
			buf = binary.LittleEndian.AppendUint64(buf, o)
		}
		buf = append(buf, data...)
	case vkAny:
		offs := make([]uint64, 0, rows+1)
		var data []byte
		var err error
		for _, cell := range v.Anys[lo:hi] {
			offs = append(offs, uint64(len(data)))
			data, err = appendValue(data, cell)
			if err != nil {
				return nil, err
			}
		}
		offs = append(offs, uint64(len(data)))
		buf = make([]byte, 0, len(offs)*8+len(data))
		for _, o := range offs {
			buf = binary.LittleEndian.AppendUint64(buf, o)
		}
		buf = append(buf, data...)
	default:
		return nil, fmt.Errorf("persist: unknown vector kind %d", v.Kind)
	}
	return buf, nil
}

// decodeChunkInto parses one chunk payload directly into dst's segment
// slices at row offset start — no intermediate chunk-local vectors, so a
// segment reload is one read and one decode pass per chunk. rows is the
// chunk's expected row count from the directory entry. b is the caller's
// reusable read buffer, so every decoded cell copies out of it.
func decodeChunkInto(dst *pgdb.VecData, start, rows int, b []byte) error {
	if len(b) < 7 {
		return fmt.Errorf("persist: chunk too short")
	}
	if b[0] != dst.Kind {
		return fmt.Errorf("persist: chunk kind %d != segment kind %d", b[0], dst.Kind)
	}
	if int(binary.LittleEndian.Uint32(b[1:])) != rows {
		return fmt.Errorf("persist: chunk row count mismatch")
	}
	off := 6
	setNull := func(ri int) error {
		if ri >= rows {
			return fmt.Errorf("persist: null bit beyond chunk rows")
		}
		gi := start + ri
		if gi>>6 >= len(dst.Nulls) {
			return fmt.Errorf("persist: null bit beyond segment")
		}
		dst.Nulls[gi>>6] |= 1 << (uint(gi) & 63)
		return nil
	}
	switch b[5] {
	case nullNone:
	case nullRaw:
		if off+4 > len(b) {
			return fmt.Errorf("persist: truncated null bitmap")
		}
		nullWords := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+nullWords*8 > len(b) {
			return fmt.Errorf("persist: truncated null bitmap")
		}
		for w := 0; w < nullWords; w++ {
			word := binary.LittleEndian.Uint64(b[off:])
			off += 8
			if word == 0 {
				continue
			}
			for i := 0; i < 64; i++ {
				if word&(1<<uint(i)) == 0 {
					continue
				}
				if err := setNull(w*64 + i); err != nil {
					return err
				}
			}
		}
	case nullRLE:
		if off+4 > len(b) {
			return fmt.Errorf("persist: truncated null runs")
		}
		runs := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+runs*8 > len(b) {
			return fmt.Errorf("persist: truncated null runs")
		}
		for r := 0; r < runs; r++ {
			rs := int(binary.LittleEndian.Uint32(b[off:]))
			rl := int(binary.LittleEndian.Uint32(b[off+4:]))
			off += 8
			for i := 0; i < rl; i++ {
				if err := setNull(rs + i); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("persist: unknown null encoding %d", b[5])
	}
	if off >= len(b) {
		return fmt.Errorf("persist: missing data encoding byte")
	}
	dataEnc := b[off]
	off++
	data := b[off:]
	switch dst.Kind {
	case vkEmpty:
		if dataEnc != dataRaw {
			return fmt.Errorf("persist: encoding %d invalid for empty vector", dataEnc)
		}
	case vkInt:
		if start+rows > len(dst.Ints) {
			return fmt.Errorf("persist: chunk shape mismatch")
		}
		out := dst.Ints[start : start+rows]
		switch dataEnc {
		case dataRaw:
			if rows*8 > len(data) {
				return fmt.Errorf("persist: truncated chunk data")
			}
			if hostLE && rows > 0 {
				copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), rows*8), data[:rows*8])
			} else {
				for i := 0; i < rows; i++ {
					out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
				}
			}
		case dataForInt:
			return decodeForInt(out, data)
		case dataDeltaInt:
			return decodeDeltaInt(out, data)
		default:
			return fmt.Errorf("persist: encoding %d invalid for int vector", dataEnc)
		}
	case vkFloat:
		if dataEnc != dataRaw {
			return fmt.Errorf("persist: encoding %d invalid for float vector", dataEnc)
		}
		if rows*8 > len(data) {
			return fmt.Errorf("persist: truncated chunk data")
		}
		if start+rows > len(dst.Floats) {
			return fmt.Errorf("persist: chunk shape mismatch")
		}
		out := dst.Floats[start : start+rows]
		if hostLE && rows > 0 {
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), rows*8), data[:rows*8])
		} else {
			for i := 0; i < rows; i++ {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
	case vkBool:
		if start+rows > len(dst.Bools) {
			return fmt.Errorf("persist: chunk shape mismatch")
		}
		out := dst.Bools[start : start+rows]
		switch dataEnc {
		case dataRaw:
			if rows > len(data) {
				return fmt.Errorf("persist: truncated chunk data")
			}
			for i := 0; i < rows; i++ {
				out[i] = data[i] != 0
			}
		case dataRLEBool:
			return decodeRLEBool(out, data)
		default:
			return fmt.Errorf("persist: encoding %d invalid for bool vector", dataEnc)
		}
	case vkStr:
		if start+rows > len(dst.Codes) {
			return fmt.Errorf("persist: chunk shape mismatch")
		}
		switch dataEnc {
		case dataRaw:
			if (rows+1)*8 > len(data) {
				return fmt.Errorf("persist: truncated chunk data")
			}
			offs := data[: (rows+1)*8 : (rows+1)*8]
			body := data[(rows+1)*8:]
			// every non-NULL cell is interned; a run of one value (date
			// columns are constant within a partition) probes once
			d := newSegDict(dst)
			var last []byte
			var code uint16
			have := false
			for i := 0; i < rows; i++ {
				lo := binary.LittleEndian.Uint64(offs[i*8:])
				hi := binary.LittleEndian.Uint64(offs[(i+1)*8:])
				if hi < lo || hi > uint64(len(body)) {
					return fmt.Errorf("persist: bad string offsets")
				}
				if nullAt(dst.Nulls, start+i) {
					dst.Codes[start+i] = 0
					continue
				}
				if cell := body[lo:hi]; !have || string(cell) != string(last) {
					var err error
					if code, err = d.code(cell); err != nil {
						return err
					}
					last, have = cell, true
				}
				dst.Codes[start+i] = code
			}
		case dataDictStr:
			return decodeDictStr(dst, start, rows, data)
		default:
			return fmt.Errorf("persist: encoding %d invalid for string vector", dataEnc)
		}
	case vkAny:
		if dataEnc != dataRaw {
			return fmt.Errorf("persist: encoding %d invalid for boxed vector", dataEnc)
		}
		if (rows+1)*8 > len(data) {
			return fmt.Errorf("persist: truncated chunk data")
		}
		if start+rows > len(dst.Anys) {
			return fmt.Errorf("persist: chunk shape mismatch")
		}
		offs := data[: (rows+1)*8 : (rows+1)*8]
		body := data[(rows+1)*8:]
		for i := 0; i < rows; i++ {
			lo := binary.LittleEndian.Uint64(offs[i*8:])
			hi := binary.LittleEndian.Uint64(offs[(i+1)*8:])
			if hi < lo || hi > uint64(len(body)) {
				return fmt.Errorf("persist: bad cell offsets")
			}
			cell, _, err := readValue(body[lo:hi], 0)
			if err != nil {
				return err
			}
			dst.Anys[start+i] = cell
		}
	default:
		return fmt.Errorf("persist: unknown vector kind %d", dst.Kind)
	}
	return nil
}

// encodeColFile assembles a whole column file from chunks (payloads aligned
// with refs; refs' Offset/Size are filled in here).
func encodeColFile(refs []chunkRef, payloads [][]byte) []byte {
	hdr := 4 + 4 + len(refs)*colDirEntry
	size := hdr
	for _, p := range payloads {
		size += len(p)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, colMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(refs)))
	off := int64(hdr)
	for i := range refs {
		refs[i].Offset = off
		refs[i].Size = int64(len(payloads[i]))
		off += refs[i].Size
		buf = binary.LittleEndian.AppendUint32(buf, uint32(refs[i].SegIdx))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(refs[i].StartInSeg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(refs[i].Rows))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(refs[i].Offset))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(refs[i].Size))
	}
	for _, p := range payloads {
		buf = append(buf, p...)
	}
	return buf
}

// readColDir parses a column file's chunk directory from its head bytes.
func readColDir(b []byte) ([]chunkRef, error) {
	if len(b) < 8 || [4]byte(b[:4]) != colMagic {
		return nil, fmt.Errorf("persist: bad column file magic")
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if 8+n*colDirEntry > len(b) {
		return nil, fmt.Errorf("persist: truncated chunk directory")
	}
	refs := make([]chunkRef, n)
	off := 8
	for i := range refs {
		refs[i].SegIdx = int(binary.LittleEndian.Uint32(b[off:]))
		refs[i].StartInSeg = int(binary.LittleEndian.Uint32(b[off+4:]))
		refs[i].Rows = int(binary.LittleEndian.Uint32(b[off+8:]))
		refs[i].Offset = int64(binary.LittleEndian.Uint64(b[off+12:]))
		refs[i].Size = int64(binary.LittleEndian.Uint64(b[off+20:]))
		off += colDirEntry
	}
	return refs, nil
}
