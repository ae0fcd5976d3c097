package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"hyperq/internal/pgdb"
)

// Lightweight per-chunk column encodings. All arithmetic is uint64
// wraparound, so frame-of-reference and delta packing are lossless for the
// whole int64 domain including overflow-spanning ranges. Bitpacked values
// are LSB-first within the byte stream.

// dictMaxEntries bounds dictionary encoding: past this cardinality the
// directory overhead can't win against the raw offset layout anyway, and
// the encoder shouldn't burn time hashing a near-unique column.
const dictMaxEntries = 1 << 12

// packBits appends len(vals) values of the given bit width, LSB-first.
func packBits(vals []uint64, width int) []byte {
	out := make([]byte, (len(vals)*width+7)/8)
	bit := 0
	for _, v := range vals {
		rem := width
		for rem > 0 {
			byteIdx := bit >> 3
			bitOff := bit & 7
			take := 8 - bitOff
			if take > rem {
				take = rem
			}
			out[byteIdx] |= byte(v&((1<<uint(take))-1)) << uint(bitOff)
			v >>= uint(take)
			bit += take
			rem -= take
		}
	}
	return out
}

// bitsAt reads one width-bit value at bit position bitPos. Callers bound
// data beforehand: bitPos+width must not run past len(data)*8.
func bitsAt(data []byte, bitPos, width int) uint64 {
	var v uint64
	shift := 0
	byteIdx := bitPos >> 3
	bitOff := bitPos & 7
	rem := width
	for rem > 0 {
		cur := uint64(data[byteIdx]) >> uint(bitOff)
		take := 8 - bitOff
		if take > rem {
			take = rem
		}
		v |= (cur & ((1 << uint(take)) - 1)) << uint(shift)
		shift += take
		rem -= take
		bitOff = 0
		byteIdx++
	}
	return v
}

// packedLen is the byte size of n width-bit packed values.
func packedLen(n, width int) int {
	return (n*width + 7) / 8
}

// encodeNullRLE emits the set-bit ranges of a chunk-local null bitmap:
// u32 runs | runs × { u32 start | u32 len }.
func encodeNullRLE(words []uint64, rows int) []byte {
	type run struct{ start, n int }
	var runs []run
	for i := 0; i < rows; i++ {
		if words[i>>6]&(1<<(uint(i)&63)) == 0 {
			continue
		}
		if len(runs) > 0 && runs[len(runs)-1].start+runs[len(runs)-1].n == i {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{i, 1})
		}
	}
	buf := make([]byte, 0, 4+len(runs)*8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.n))
	}
	return buf
}

// encodeDataCompressed tries the kind's compressed encodings for rows
// [lo, hi) and returns the best candidate, or (0, nil) when the kind has
// none or the candidate is degenerate. The caller compares against raw.
func encodeDataCompressed(v pgdb.VecData, lo, hi int) (byte, []byte) {
	switch v.Kind {
	case vkInt:
		return encodeIntPacked(v.Ints[lo:hi])
	case vkStr:
		return encodeDictStr(v, lo, hi)
	case vkBool:
		return encodeRLEBool(v.Bools[lo:hi])
	}
	return 0, nil
}

// encodeIntPacked picks the smaller of frame-of-reference and delta
// packing. Frames and deltas are uint64-wraparound, so any value range
// round-trips exactly.
func encodeIntPacked(vals []int64) (byte, []byte) {
	if len(vals) == 0 {
		return 0, nil
	}
	minV, maxV := vals[0], vals[0]
	for _, x := range vals[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	forWidth := bits.Len64(uint64(maxV) - uint64(minV))
	forSize := 9 + packedLen(len(vals), forWidth)

	deltaSize := -1
	var minD, maxD int64
	if len(vals) >= 2 {
		minD = int64(uint64(vals[1]) - uint64(vals[0]))
		maxD = minD
		for i := 2; i < len(vals); i++ {
			d := int64(uint64(vals[i]) - uint64(vals[i-1]))
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
		deltaWidth := bits.Len64(uint64(maxD) - uint64(minD))
		deltaSize = 17 + packedLen(len(vals)-1, deltaWidth)
	}

	if deltaSize >= 0 && deltaSize < forSize {
		deltas := make([]uint64, len(vals)-1)
		for i := range deltas {
			d := uint64(vals[i+1]) - uint64(vals[i])
			deltas[i] = d - uint64(minD)
		}
		width := bits.Len64(uint64(maxD) - uint64(minD))
		buf := make([]byte, 0, deltaSize)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(vals[0]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(minD))
		buf = append(buf, byte(width))
		return dataDeltaInt, append(buf, packBits(deltas, width)...)
	}
	packed := make([]uint64, len(vals))
	for i, x := range vals {
		packed[i] = uint64(x) - uint64(minV)
	}
	buf := make([]byte, 0, forSize)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(minV))
	buf = append(buf, byte(forWidth))
	return dataForInt, append(buf, packBits(packed, forWidth)...)
}

func decodeForInt(out []int64, data []byte) error {
	if len(data) < 9 {
		return fmt.Errorf("persist: truncated FOR header")
	}
	frame := binary.LittleEndian.Uint64(data)
	width := int(data[8])
	if width > 64 {
		return fmt.Errorf("persist: FOR width %d out of range", width)
	}
	body := data[9:]
	if packedLen(len(out), width) > len(body) {
		return fmt.Errorf("persist: truncated FOR data")
	}
	for i := range out {
		out[i] = int64(frame + bitsAt(body, i*width, width))
	}
	return nil
}

func decodeDeltaInt(out []int64, data []byte) error {
	if len(data) < 17 {
		return fmt.Errorf("persist: truncated delta header")
	}
	if len(out) == 0 {
		return nil
	}
	cur := binary.LittleEndian.Uint64(data)
	frame := binary.LittleEndian.Uint64(data[8:])
	width := int(data[16])
	if width > 64 {
		return fmt.Errorf("persist: delta width %d out of range", width)
	}
	body := data[17:]
	if packedLen(len(out)-1, width) > len(body) {
		return fmt.Errorf("persist: truncated delta data")
	}
	out[0] = int64(cur)
	for i := 1; i < len(out); i++ {
		cur += frame + bitsAt(body, (i-1)*width, width)
		out[i] = int64(cur)
	}
	return nil
}

// encodeDictStr writes rows [lo, hi) of a string vector as a dictionary
// chunk: u32 dictN | dictN × { u32 len | bytes } | u8 width | packed
// indexes. The chunk's dictionary is the segment dictionary's entries that
// its non-NULL rows use, in first-appearance order, found through a table
// over the segment's codes rather than a map. A NULL row indexes entry 0,
// and a chunk of NULLs only carries the one entry "".
func encodeDictStr(v pgdb.VecData, lo, hi int) (byte, []byte) {
	if hi <= lo {
		return 0, nil
	}
	remap := make([]int32, len(v.Dict)) // segment code → chunk index + 1
	var order []string
	idx := make([]uint64, hi-lo)
	for i := lo; i < hi; i++ {
		if nullAt(v.Nulls, i) {
			continue
		}
		c := v.Codes[i]
		if remap[c] == 0 {
			order = append(order, v.Dict[c])
			remap[c] = int32(len(order))
		}
		idx[i-lo] = uint64(remap[c] - 1)
	}
	if len(order) == 0 {
		order = []string{""}
	}
	width := bits.Len64(uint64(len(order) - 1))
	size := 4 + 1 + packedLen(len(idx), width)
	for _, s := range order {
		size += 4 + len(s)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(order)))
	for _, s := range order {
		buf = appendString(buf, s)
	}
	buf = append(buf, byte(width))
	return dataDictStr, append(buf, packBits(idx, width)...)
}

// nullAt reports whether null bitmap nulls sets row i.
func nullAt(nulls []uint64, i int) bool {
	w := i >> 6
	return w < len(nulls) && nulls[w]&(1<<(uint(i)&63)) != 0
}

// segDict interns a chunk's strings into the dictionary of the segment
// vector it decodes into, so the chunks of a segment split across two
// partitions merge entry by entry.
type segDict struct {
	dst *pgdb.VecData
	idx map[string]uint16
}

func newSegDict(dst *pgdb.VecData) *segDict {
	d := &segDict{dst: dst, idx: make(map[string]uint16, len(dst.Dict))}
	for c, s := range dst.Dict {
		d.idx[s] = uint16(c)
	}
	return d
}

// code returns the code of the string b holds, adding it when it is new.
func (d *segDict) code(b []byte) (uint16, error) {
	if c, ok := d.idx[string(b)]; ok {
		return c, nil
	}
	if len(d.dst.Dict) > math.MaxUint16 {
		return 0, fmt.Errorf("persist: segment dictionary exceeds %d entries", math.MaxUint16+1)
	}
	s := string(b)
	c := uint16(len(d.dst.Dict))
	d.dst.Dict = append(d.dst.Dict, s)
	d.idx[s] = c
	return c, nil
}

// decodeDictStr decodes a dictionary chunk into rows [start, start+rows) of
// the string vector dst, whose null bits for those rows are already set.
// It unpacks indexes into codes and builds no string per row: each entry a
// non-NULL row uses is interned into dst's dictionary once, and a NULL row
// takes code 0.
func decodeDictStr(dst *pgdb.VecData, start, rows int, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("persist: truncated dictionary")
	}
	dictN := int(binary.LittleEndian.Uint32(data))
	if dictN > dictMaxEntries || 4+dictN*4 > len(data) {
		return fmt.Errorf("persist: dictionary size %d out of range", dictN)
	}
	off := 4
	ents := make([][2]int, dictN) // each entry's byte range in data
	for i := range ents {
		if off+4 > len(data) {
			return fmt.Errorf("persist: truncated dictionary entry")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n > len(data)-off {
			return fmt.Errorf("persist: truncated dictionary entry")
		}
		ents[i] = [2]int{off, off + n}
		off += n
	}
	if off >= len(data) {
		return fmt.Errorf("persist: missing dictionary index width")
	}
	width := int(data[off])
	off++
	if width > 64 {
		return fmt.Errorf("persist: dictionary width %d out of range", width)
	}
	body := data[off:]
	if packedLen(rows, width) > len(body) {
		return fmt.Errorf("persist: truncated dictionary indexes")
	}
	d := newSegDict(dst)
	remap := make([]int32, dictN) // chunk index → segment code + 1
	out := dst.Codes[start : start+rows]
	for i := range out {
		id := bitsAt(body, i*width, width)
		if id >= uint64(dictN) {
			return fmt.Errorf("persist: dictionary index %d out of range", id)
		}
		if nullAt(dst.Nulls, start+i) {
			out[i] = 0
			continue
		}
		if remap[id] == 0 {
			c, err := d.code(data[ents[id][0]:ents[id][1]])
			if err != nil {
				return err
			}
			remap[id] = int32(c) + 1
		}
		out[i] = uint16(remap[id] - 1)
	}
	return nil
}

// encodeRLEBool run-length encodes a bool column:
// u32 runs | runs × { u8 val | u32 len }.
func encodeRLEBool(vals []bool) (byte, []byte) {
	if len(vals) == 0 {
		return 0, nil
	}
	type run struct {
		val bool
		n   int
	}
	var runs []run
	for _, v := range vals {
		if len(runs) > 0 && runs[len(runs)-1].val == v {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{v, 1})
		}
	}
	buf := make([]byte, 0, 4+len(runs)*5)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		if r.val {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.n))
	}
	return dataRLEBool, buf
}

func decodeRLEBool(out []bool, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("persist: truncated bool runs")
	}
	runs := int(binary.LittleEndian.Uint32(data))
	off := 4
	pos := 0
	for r := 0; r < runs; r++ {
		if off+5 > len(data) {
			return fmt.Errorf("persist: truncated bool run")
		}
		val := data[off] != 0
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		off += 5
		if n < 0 || pos+n > len(out) {
			return fmt.Errorf("persist: bool runs beyond chunk rows")
		}
		for i := 0; i < n; i++ {
			out[pos+i] = val
		}
		pos += n
	}
	if pos != len(out) {
		return fmt.Errorf("persist: bool runs cover %d of %d rows", pos, len(out))
	}
	return nil
}
