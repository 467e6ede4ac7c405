package directory

import (
	"math/rand"
	"testing"

	"cenju4/internal/topology"
)

// Reference implementation: decode members and scan.
func refAnyMatch(d Dest, mask, value uint32) bool {
	for _, m := range d.Members(nil, topology.MaxNodes) {
		if uint32(m)&mask == value {
			return true
		}
	}
	return false
}

func TestAnyMatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		var bp BitPattern
		k := 1 + rng.Intn(8)
		for i := 0; i < k; i++ {
			bp.Add(topology.NodeID(rng.Intn(1024)))
		}
		d := PatternDest(bp)
		mask := uint32(rng.Intn(1 << 12))
		value := uint32(rng.Intn(1<<12)) & mask
		got := d.AnyMatch(mask, value)
		want := refAnyMatch(d, mask, value)
		if got != want {
			t.Fatalf("AnyMatch(%#x,%#x) on %v = %v, want %v", mask, value, bp, got, want)
		}
	}
}

func TestAnyMatchPointerDest(t *testing.T) {
	d := PointerDest(5, 160)
	if !d.AnyMatch(0x1f, 5) {
		t.Error("low-bit match for node 5 failed")
	}
	if !d.AnyMatch(0x3e0, 160) {
		t.Error("high-bit match for node 160 failed")
	}
	if d.AnyMatch(0x1f, 7) {
		t.Error("matched absent low bits")
	}
}

func TestAnyMatchEmpty(t *testing.T) {
	var bp BitPattern
	if bp.AnyMatch(0, 0) {
		t.Error("empty pattern matched")
	}
	var d Dest
	if d.AnyMatch(0, 0) {
		t.Error("empty dest matched")
	}
}

func TestAnyMatchUnsatisfiable(t *testing.T) {
	bp := EncodeNode(3)
	if bp.AnyMatch(0x0f, 0x13) {
		t.Error("value outside mask matched")
	}
	if bp.AnyMatch(0xfff, 1<<10|3) {
		t.Error("value above node width matched")
	}
}

func TestAnyMatchZeroMaskMatchesNonEmpty(t *testing.T) {
	bp := EncodeNode(700)
	if !bp.AnyMatch(0, 0) {
		t.Error("zero mask should match any nonempty pattern")
	}
}

func TestAnyMatchRoutingUseCases(t *testing.T) {
	// Multicast port computation: 6-stage network, destination prefix
	// constraints. Nodes 0 and 164 (0b0010100100): stage digits (6
	// digits over 12 bits, top 2 bits zero): 164 -> 0,0,2,2,1,0.
	var bp BitPattern
	bp.Add(0)
	bp.Add(164)
	d := PatternDest(bp)
	// Stage 2 (digit covering bits 7-6): with prefix digits 0,0 chosen,
	// are there members with digit2 = 2 (bits 7-6 = 10)?
	if !d.AnyMatch(0b1111000000, 0b0010000000) {
		t.Error("digit constraint for node 164 failed")
	}
	// digit2 = 0 must match node 0.
	if !d.AnyMatch(0b1111000000, 0) {
		t.Error("digit constraint for node 0 failed")
	}
	// digit2 = 1: no member.
	if d.AnyMatch(0b1111000000, 0b0001000000) {
		t.Error("matched nonexistent branch")
	}
}

// PortMask answers exactly the four per-port AnyMatch queries it
// replaces, for both formats, digits anywhere in (and past) the node
// number, and constraints that cannot be met.
func TestPortMaskEqualsFourAnyMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4000; trial++ {
		var d Dest
		switch trial % 4 {
		case 0:
			ptrs := make([]topology.NodeID, 1+rng.Intn(MaxPointers))
			for i := range ptrs {
				ptrs[i] = topology.NodeID(rng.Intn(1024))
			}
			d = PointerDest(ptrs...)
		case 1, 2:
			var bp BitPattern
			for k := 1 + rng.Intn(90); k > 0; k-- {
				bp.Add(topology.NodeID(rng.Intn(1 << (3 + rng.Intn(8)))))
			}
			d = PatternDest(bp)
		default:
			d = PatternDest(1<<BitPatternBits - 1)
		}
		shift := rng.Intn(13)
		digit := uint32(3) << shift
		mask := uint32(rng.Intn(1<<12)) &^ digit
		value := uint32(rng.Intn(1<<12)) & mask
		if rng.Intn(10) == 0 {
			value = uint32(rng.Intn(1<<12)) &^ digit // may leave the mask
		}
		var want uint8
		for q := uint32(0); q < 4; q++ {
			if d.AnyMatch(mask|digit, value|q<<shift) {
				want |= 1 << q
			}
		}
		if got := d.PortMask(mask, value, shift); got != want {
			t.Fatalf("PortMask(%#x, %#x, %d) on %+v = %04b, four AnyMatch calls give %04b",
				mask, value, shift, d, got, want)
		}
	}
}

// BenchmarkDestQueries times the per-message node-map queries on the
// two destination forms the protocol sends: a four-pointer map and the
// 92-target bit pattern of a 1024-node CG invalidation (one f1 value,
// two f2, two f3, 23 f4). PortMask runs the gather wait-pattern query
// of a 5-stage network at every stage.
func BenchmarkDestQueries(b *testing.B) {
	var ptr, pat Entry
	for _, n := range []topology.NodeID{5, 160, 3, 999} {
		ptr.MapAdd(n)
	}
	for f2 := 0; f2 < 2; f2++ {
		for f3 := 0; f3 < 2; f3++ {
			for f4 := 0; f4 < 23; f4++ {
				pat.MapAdd(topology.NodeID(f2<<6 | f3<<5 | f4))
			}
		}
	}
	if pat.Dest().Count() != 92 {
		b.Fatalf("pattern destination has %d targets, want 92", pat.Dest().Count())
	}
	buf := make([]topology.NodeID, 0, topology.MaxNodes)
	for _, c := range []struct {
		name string
		d    Dest
	}{{"pointer4", ptr.Dest()}, {"pattern92", pat.Dest()}} {
		d := c.d
		b.Run(c.name+"/Members", func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(d.Members(buf[:0], topology.MaxNodes))
			}
			sinkInt = n
		})
		b.Run(c.name+"/Contains", func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				if d.Contains(topology.NodeID(i & (topology.MaxNodes - 1))) {
					n++
				}
			}
			sinkInt = n
		})
		b.Run(c.name+"/PortMask", func(b *testing.B) {
			var ports uint8
			for i := 0; i < b.N; i++ {
				shift := 2 * (4 - i%5)
				suffix := uint32(1)<<shift - 1
				ports ^= d.PortMask(suffix, uint32(i)&suffix, shift)
			}
			sinkInt = int(ports)
		})
	}
}

var sinkInt int
