package directory

// AnyMatch reports whether the represented set contains any node n with
// n & mask == value (over the 10-bit node-number space): the switch
// chip's partial-match query on the destination structure — "found ...
// by their own position information in the network, the system size,
// and the multicast destination". The network asks it four ports at a
// time through PortMask; AnyMatch is the one-constraint form.
//
// Because the bit-pattern structure is a cross product of independent
// one-hot fields, the query decomposes field-wise and runs in O(42).
func (p BitPattern) AnyMatch(mask, value uint32) bool {
	if p == 0 {
		return false
	}
	if value&^mask != 0 {
		return false // value sets bits outside the mask: unsatisfiable
	}
	if value>>10 != 0 {
		return false // constraint requires bits above the node-number width
	}
	if p == 1<<BitPatternBits-1 {
		// Saturated pattern (every field fully one-hot — the 1024-sharer
		// "invalidate everyone" case of the headline figure): the set is
		// the whole node space, so any constraint that survived the
		// checks above is satisfied by n = value itself.
		return true
	}
	f1, f2, f3, f4 := p.fields()
	return f4&matchSet(5, 0, mask, value) != 0 &&
		f3&matchSet(1, 5, mask, value) != 0 &&
		f2&matchSet(2, 6, mask, value) != 0 &&
		f1&matchSet(2, 8, mask, value) != 0
}

// PortMask answers four partial-match queries at once: bit q of the
// result is set when some represented node n has n & mask == value and
// radix-4 digit q at bit position shift ((n>>shift)&3 == q). mask and
// value must leave the digit's two bits clear. The result equals the
// four AnyMatch(mask|3<<shift, value|q<<shift) calls, but narrows the
// fields once: it is the per-switch wait-pattern calculation of
// in-network gathering.
func (p BitPattern) PortMask(mask, value uint32, shift int) uint8 {
	if p == 0 || value&^mask != 0 || value>>10 != 0 {
		return 0
	}
	var ports uint8
	if p == 1<<BitPatternBits-1 {
		// Saturated pattern: every node is a member, so digit q occurs
		// whenever value | q<<shift is a node number.
		for q := uint32(0); q < 4; q++ {
			if (value|q<<shift)>>10 == 0 {
				ports |= 1 << q
			}
		}
		return ports
	}
	f1, f2, f3, f4 := p.fields()
	f4 &= matchSet(5, 0, mask, value)
	f3 &= matchSet(1, 5, mask, value)
	f2 &= matchSet(2, 6, mask, value)
	f1 &= matchSet(2, 8, mask, value)
	if f1 == 0 || f2 == 0 || f3 == 0 || f4 == 0 {
		return 0
	}
	digit := uint32(3) << shift
	for q := uint32(0); q < 4; q++ {
		v := q << shift
		if v>>10 != 0 {
			continue // the digit value needs node-number bits above bit 9
		}
		if f4&matchSet(5, 0, digit, v) != 0 &&
			f3&matchSet(1, 5, digit, v) != 0 &&
			f2&matchSet(2, 6, digit, v) != 0 &&
			f1&matchSet(2, 8, digit, v) != 0 {
			ports |= 1 << q
		}
	}
	return ports
}

// fieldMatch[m<<5|v] is the one-hot set of the 5-bit values x with
// x&m == v&m (bit x of the word stands for value x).
var fieldMatch = func() (t [1 << 10]uint32) {
	for m := 0; m < 32; m++ {
		for v := 0; v < 32; v++ {
			for x := 0; x < 32; x++ {
				if x&m == v&m {
					t[m<<5|v] |= 1 << x
				}
			}
		}
	}
	return t
}()

// matchSet returns, one-hot, the values of the width-bit field at
// node-number bit pos that agree with value on every bit mask
// constrains.
func matchSet(width, pos int, mask, value uint32) uint64 {
	fm := uint32(1)<<width - 1
	return uint64(fieldMatch[(mask>>pos&fm)<<5|value>>pos&fm]) & (1<<(1<<width) - 1)
}

// AnyMatch reports whether any destination node n satisfies
// n & mask == value.
func (d Dest) AnyMatch(mask, value uint32) bool {
	if d.IsPattern() {
		return d.Pattern().AnyMatch(mask, value)
	}
	for w, c := d, d.ptrs(); c > 0; w, c = w>>ptrWidth, c-1 {
		if uint32(w&ptrMask)&mask == value {
			return true
		}
	}
	return false
}

// PortMask is BitPattern.PortMask over either destination format.
//
//cenju4:hotpath
func (d Dest) PortMask(mask, value uint32, shift int) uint8 {
	if d.IsPattern() {
		return d.Pattern().PortMask(mask, value, shift)
	}
	var ports uint8
	for w, c := d, d.ptrs(); c > 0; w, c = w>>ptrWidth, c-1 {
		if p := uint32(w & ptrMask); p&mask == value {
			ports |= 1 << (p >> shift & 3)
		}
	}
	return ports
}
