package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hyperq/internal/pgdb"
)

// fuzzMaxSegs bounds the segments one fuzzed column file may name: the
// harness allocates each a vector of up to SegmentSize rows.
const fuzzMaxSegs = 4

// FuzzChunkCodec reads column files the way a segment fault does:
// readColDir parses the chunk directory, and decodeChunkInto decodes each
// chunk into its segment's vector. An input either fails to decode, or its
// every segment re-encodes (encodeChunk) and decodes back to the same
// cells. Decoding never panics and allocates at most a bounded multiple of
// the input, so no length field is trusted before the bytes back it.
func FuzzChunkCodec(f *testing.F) {
	for _, seed := range codecSeeds(f) {
		f.Add(seed)
	}
	fixtures, err := filepath.Glob("testdata/rawckpt/ckpt-*/*/*/*.col")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no raw checkpoint fixtures: %v", err)
	}
	for _, p := range fixtures {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var segs []fuzzSeg
		var err error
		// the harness's vectors (fuzzMaxSegs of at most SegmentSize rows of
		// 16-byte cells) plus 64 bytes per input byte
		bound := uint64(64*len(in) + fuzzMaxSegs*(pgdb.SegmentSize*16+1024) + 64<<10)
		if n := allocBytes(func() { segs, err = decodeColFile(in) }); n > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(in), n, bound)
		}
		if err != nil {
			return
		}
		for i, seg := range segs {
			v, n := seg.v, seg.n
			b, err := encodeChunk(v, 0, n)
			if err != nil {
				t.Fatalf("segment %d: re-encoding a decoded vector: %v", i, err)
			}
			w := segVec(v.Kind, n)
			if err := decodeChunkInto(&w, 0, n, b); err != nil {
				t.Fatalf("segment %d: decoding the re-encoded chunk: %v", i, err)
			}
			if got, want := vecCells(w, n), vecCells(v, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("segment %d: round trip diverges:\n got %v\nwant %v", i, got, want)
			}
		}
	})
}

// fuzzSeg is one decoded segment vector of n rows.
type fuzzSeg struct {
	v pgdb.VecData
	n int
}

// decodeColFile decodes every segment a column file's chunks name, in order
// of first mention; a segment's row count is the sum of its chunks' rows.
func decodeColFile(in []byte) ([]fuzzSeg, error) {
	refs, err := readColDir(in)
	if err != nil {
		return nil, err
	}
	rows := map[int]int{}
	var order []int
	for _, r := range refs {
		if _, ok := rows[r.SegIdx]; !ok {
			if len(order) == fuzzMaxSegs {
				return nil, fmt.Errorf("more than %d segments", fuzzMaxSegs)
			}
			order = append(order, r.SegIdx)
		}
		rows[r.SegIdx] += r.Rows
	}
	payload := func(r chunkRef) ([]byte, error) {
		if r.Offset < 0 || r.Size < 1 || r.Offset > int64(len(in))-r.Size {
			return nil, fmt.Errorf("chunk extent outside the file")
		}
		return in[r.Offset : r.Offset+r.Size], nil
	}
	segs := make([]fuzzSeg, len(order))
	for i, si := range order {
		if rows[si] > pgdb.SegmentSize {
			return nil, fmt.Errorf("segment %d: %d rows", si, rows[si])
		}
		var v *pgdb.VecData
		for _, r := range refs {
			if r.SegIdx != si {
				continue
			}
			b, err := payload(r)
			if err != nil {
				return nil, err
			}
			if v == nil {
				segs[i] = fuzzSeg{segVec(b[0], rows[si]), rows[si]}
				v = &segs[i].v
			}
			if err := decodeChunkInto(v, r.StartInSeg, r.Rows, b); err != nil {
				return nil, err
			}
		}
	}
	return segs, nil
}

// vecCells lists the n cells of v: nil for a NULL row, a float as its bits
// (NaN equals itself), a string through the dictionary.
func vecCells(v pgdb.VecData, n int) []any {
	out := make([]any, n)
	for i := range out {
		if nullAt(v.Nulls, i) {
			continue
		}
		switch v.Kind {
		case vkInt:
			out[i] = v.Ints[i]
		case vkFloat:
			out[i] = math.Float64bits(v.Floats[i])
		case vkStr:
			out[i] = v.Dict[v.Codes[i]]
		case vkBool:
			out[i] = v.Bools[i]
		case vkAny:
			out[i] = v.Anys[i]
		default:
			out[i] = "not null"
		}
	}
	return out
}

// allocBytes reports the fewest bytes f allocated over two runs: other
// goroutines of the test binary may allocate meanwhile, and the minimum
// filters them out.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// seedChunk is one chunk of a seed column file: rows [start, start+rows) of
// segment seg.
type seedChunk struct {
	seg, start, rows int
	payload          []byte
}

// colFileOf lays chunks out as a column file.
func colFileOf(chunks ...seedChunk) []byte {
	refs := make([]chunkRef, len(chunks))
	payloads := make([][]byte, len(chunks))
	for i, c := range chunks {
		refs[i] = chunkRef{SegIdx: c.seg, StartInSeg: c.start, Rows: c.rows}
		payloads[i] = c.payload
	}
	return encodeColFile(refs, payloads)
}

// chunkEncodings reads a chunk payload's null and data encoding bytes.
func chunkEncodings(b []byte) (nullEnc, dataEnc byte) {
	off := 6
	switch b[5] {
	case nullRaw, nullRLE: // u32 count of 8-byte words or runs
		off += 4 + 8*int(binary.LittleEndian.Uint32(b[6:]))
	}
	return b[5], b[off]
}

// codecSeeds returns one-segment column files covering every null encoding,
// every data encoding and the raw layout of every kind, plus a string
// segment split into two chunks whose dictionaries merge. It fails when the
// encoder no longer picks some encoding for the shape meant to draw it.
func codecSeeds(f *testing.F) [][]byte {
	const n = 130
	noNulls := make([]uint64, (n+63)/64)
	sparse := make([]uint64, (n+63)/64) // a few runs: RLE
	dense := make([]uint64, (n+63)/64)  // many runs: raw
	allNull := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if i%97 < 3 {
			sparse[i>>6] |= 1 << (uint(i) & 63)
		}
		if i%2 == 0 {
			dense[i>>6] |= 1 << (uint(i) & 63)
		}
		allNull[i>>6] |= 1 << (uint(i) & 63)
	}
	ints := func(f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	strs := func(f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	floats := make([]float64, n)
	bools, flips := make([]bool, n), make([]bool, n)
	anys := make([]any, n)
	for i := 0; i < n; i++ {
		floats[i] = float64(i) / 3
		bools[i] = i < n/2
		flips[i] = i%2 == 0
		anys[i] = []any{int64(i), "a", 1.5, true, nil}[i%5]
	}
	floats[7] = math.NaN()
	vecs := []pgdb.VecData{
		{Kind: vkInt, Ints: ints(func(i int) int64 { return 1000 + int64(i)*3 }), Nulls: noNulls},
		{Kind: vkInt, Ints: ints(func(i int) int64 { return int64(i % 7) }), Nulls: sparse},
		{Kind: vkInt, Ints: ints(func(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15) }), Nulls: dense},
		{Kind: vkFloat, Floats: floats, Nulls: sparse},
		strVec(strs(func(i int) string { return fmt.Sprintf("sym%d", i%5) }), sparse),
		{Kind: vkBool, Bools: bools, Nulls: noNulls},
		{Kind: vkBool, Bools: flips, Nulls: sparse},
		{Kind: vkAny, Anys: anys, Nulls: noNulls},
		{Kind: vkEmpty, Nulls: allNull},
	}
	var seeds [][]byte
	seen := map[string]bool{} // "null <enc>" and "<kind> <enc>"
	add := func(chunks ...seedChunk) {
		for _, c := range chunks {
			nullEnc, dataEnc := chunkEncodings(c.payload)
			seen[fmt.Sprint("null ", nullEnc)] = true
			seen[fmt.Sprint(c.payload[0], " ", dataEnc)] = true
		}
		seeds = append(seeds, colFileOf(chunks...))
	}
	for _, v := range vecs {
		enc, err := encodeChunk(v, 0, n)
		if err != nil {
			f.Fatal(err)
		}
		add(seedChunk{0, 0, n, enc})
		raw, err := encodeDataRaw(v, 0, n)
		if err != nil {
			f.Fatal(err)
		}
		hdr := binary.LittleEndian.AppendUint32([]byte{v.Kind}, n)
		add(seedChunk{0, 0, n, append(append(hdr, nullNone, dataRaw), raw...)})
	}
	// one string segment in two chunks, as a partition boundary splits it
	split := strVec(strs(func(i int) string { return fmt.Sprintf("%c%d", "AB"[i/70], i%4) }), sparse)
	a, err := encodeChunk(split, 0, 70)
	if err != nil {
		f.Fatal(err)
	}
	b, err := encodeChunk(split, 70, n)
	if err != nil {
		f.Fatal(err)
	}
	add(seedChunk{0, 70, n - 70, b}, seedChunk{0, 0, 70, a})

	for _, w := range [][2]byte{{vkInt, dataRaw}, {vkInt, dataForInt}, {vkInt, dataDeltaInt},
		{vkFloat, dataRaw}, {vkStr, dataRaw}, {vkStr, dataDictStr}, {vkBool, dataRaw},
		{vkBool, dataRLEBool}, {vkAny, dataRaw}, {vkEmpty, dataRaw}} {
		if !seen[fmt.Sprint(w[0], " ", w[1])] {
			f.Fatalf("no seed draws data encoding %d for kind %d", w[1], w[0])
		}
	}
	for _, enc := range []byte{nullNone, nullRaw, nullRLE} {
		if !seen[fmt.Sprint("null ", enc)] {
			f.Fatalf("no seed draws null encoding %d", enc)
		}
	}
	return seeds
}
