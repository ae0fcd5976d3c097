package qipc

import "encoding/binary"

// Compress applies the kx IPC compression scheme to a complete framed
// message (header + payload). The format is an LZ variant: a control byte
// precedes each group of eight items, where an item is either a literal
// byte or a (hash, extra-length) back-reference into a 256-entry table of
// recent byte-pair positions. The compressed frame carries the uncompressed
// length at offset 8 and sets the compressed flag at header byte 2.
//
// It returns (compressed, true) when compression shrinks the message, and
// (nil, false) otherwise — kdb+ likewise sends incompressible messages raw.
func Compress(raw []byte) ([]byte, bool) {
	t := len(raw)
	// below ~64 bytes the 12-byte compressed header plus control bytes
	// cannot win; also guarantees the output buffer fits its own header
	if t < 64 {
		return nil, false
	}
	// worst case must stay under the original size to be worth sending
	y := make([]byte, t/2)
	copy(y, raw[:4])
	y[2] = 1                                // compressed flag
	binary.LittleEndian.PutUint32(y[4:], 0) // total length patched at the end
	binary.LittleEndian.PutUint32(y[8:], uint32(t))

	var table [256]int
	d := 12  // write cursor in y
	s := 8   // read cursor in raw
	p := 8   // pair-indexing cursor, mirrors the decompressor's
	f := 0   // position of the current control byte in y
	bit := 0 // current control bit (0 means "allocate a new control byte")
	for s < t {
		if bit == 0 {
			if d > len(y)-17 {
				return nil, false // incompressible
			}
			f = d
			y[f] = 0
			d++
			bit = 1
		}
		// try a back-reference: need at least 3 bytes left and a table hit
		match := false
		var h byte
		if s <= t-3 {
			h = raw[s] ^ raw[s+1]
			cand := table[h]
			// a hit is valid when the first byte matches (equal hash then
			// implies the second matches too) and the decompressor would
			// have the same entry (cand is a previously indexed position)
			if cand != 0 && raw[cand] == raw[s] {
				match = true
				// extend: two implicit bytes plus up to 255 more
				m := 0
				maxM := t - (s + 2)
				if maxM > 255 {
					maxM = 255
				}
				for m < maxM && raw[cand+2+m] == raw[s+2+m] {
					m++
				}
				y[f] |= byte(bit)
				y[d] = h
				y[d+1] = byte(m)
				d += 2
				// mirror the decompressor's bookkeeping: it copies the two
				// implicit bytes (s advances 2), indexes pairs up to s-1,
				// then skips the extra-run and resets the pair cursor
				s += 2
				for ; p < s-1; p++ {
					table[raw[p]^raw[p+1]] = p
				}
				s += m
				p = s
			}
		}
		if !match {
			y[d] = raw[s]
			d++
			s++
			for ; p < s-1; p++ {
				table[raw[p]^raw[p+1]] = p
			}
		}
		bit *= 2
		if bit == 256 {
			bit = 0
		}
	}
	binary.LittleEndian.PutUint32(y[4:], uint32(d))
	return y[:d], true
}

// Decompress expands a compressed framed message back to its raw form.
func Decompress(z []byte) ([]byte, error) {
	if len(z) < 12 {
		return nil, errf("compressed message too short")
	}
	total := binary.LittleEndian.Uint32(z[8:])
	if total < headerLen || total > maxMessage {
		return nil, errf("implausible uncompressed length %d", total)
	}
	// A control byte governs eight items and the largest item, a two-byte
	// back-reference, expands to 2+255 bytes: 17 input bytes never yield
	// more than 8×257 output bytes. A longer claim is a lie that would make
	// the buffer below as large as the sender pleases.
	if maxOut := (int64(len(z)-12) + 16) / 17 * 8 * 257; int64(total-headerLen) > maxOut {
		return nil, errf("uncompressed length %d exceeds what %d compressed bytes can expand to", total, len(z))
	}
	dst := make([]byte, total)
	copy(dst, z[:4])
	dst[2] = 0 // clear compressed flag
	binary.LittleEndian.PutUint32(dst[4:], total)

	var table [256]int
	d := 12
	s := 8
	p := 8
	f := 0
	bit := 0
	n := 0
	for s < int(total) {
		if bit == 0 {
			if d >= len(z) {
				return nil, errf("truncated compressed stream")
			}
			f = int(z[d])
			d++
			bit = 1
		}
		if f&bit != 0 {
			if d+1 >= len(z) {
				return nil, errf("truncated back-reference")
			}
			r := table[z[d]]
			d++
			if r+1 >= len(dst) || s+1 >= len(dst) {
				return nil, errf("corrupt back-reference")
			}
			dst[s] = dst[r]
			dst[s+1] = dst[r+1]
			s += 2
			n = int(z[d])
			d++
			for m := 0; m < n; m++ {
				if r+2+m >= len(dst) || s+m >= len(dst) {
					return nil, errf("corrupt run")
				}
				dst[s+m] = dst[r+2+m]
			}
		} else {
			if d >= len(z) || s >= len(dst) {
				return nil, errf("truncated literal")
			}
			dst[s] = z[d]
			s++
			d++
		}
		for ; p < s-1; p++ {
			table[dst[p]^dst[p+1]] = p
		}
		if f&bit != 0 {
			s += n
			p = s
		}
		bit *= 2
		if bit == 256 {
			bit = 0
		}
	}
	return dst, nil
}
