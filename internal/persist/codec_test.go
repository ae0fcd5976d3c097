package persist

import (
	"fmt"
	"testing"

	"hyperq/internal/pgdb"
)

// TestRawLenMatchesRawLayout: the raw length encodeChunk compares against
// the compressed candidate equals the length of the raw layout itself, for
// every kind with such a candidate, over whole chunks and chunks cut out of
// a segment. The strings cover NULL and empty cells and an all-NULL chunk.
func TestRawLenMatchesRawLayout(t *testing.T) {
	const n = 200
	nulls := make([]uint64, (n+63)/64)
	tailNull := make([]uint64, (n+63)/64) // rows 150.. are NULL
	ints := make([]int64, n)
	bools := make([]bool, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			nulls[i>>6] |= 1 << (uint(i) & 63)
		}
		if i >= 150 {
			tailNull[i>>6] |= 1 << (uint(i) & 63)
		}
		ints[i] = int64(i * i)
		bools[i] = i%3 == 0
		strs[i] = []string{"", "a", "bcd", "é"}[i%4] + fmt.Sprint(i%5)
		if i%11 == 0 {
			strs[i] = ""
		}
	}
	vecs := map[string]pgdb.VecData{
		"int":          {Kind: vkInt, Ints: ints, Nulls: nulls},
		"bool":         {Kind: vkBool, Bools: bools, Nulls: nulls},
		"str":          strVec(strs, nulls),
		"str-tailnull": strVec(strs, tailNull),
	}
	for name, v := range vecs {
		for _, r := range [][2]int{{0, n}, {0, 1}, {37, 120}, {150, n}, {n, n}} {
			raw, err := encodeDataRaw(v, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := rawLen(v, r[0], r[1]); got != len(raw) {
				t.Errorf("%s rows [%d,%d): rawLen %d, raw layout %d B", name, r[0], r[1], got, len(raw))
			}
		}
	}
}
