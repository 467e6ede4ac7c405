package msg

import (
	"testing"
	"unsafe"

	"cenju4/internal/directory"
	"cenju4/internal/topology"
)

// TestMessageSize pins the records every send copies: a Dest is the
// directory entry's 60-bit map word in one uint64, so a Message is 72
// bytes and a Gather 32.
func TestMessageSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"directory.Dest", unsafe.Sizeof(directory.Dest(0)), 8},
		{"Message", unsafe.Sizeof(Message{}), 72},
		{"Gather", unsafe.Sizeof(Gather{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		k                                  Kind
		request, toSlave, toHome, toMaster bool
	}{
		{ReadShared, true, false, true, false},
		{ReadExclusive, true, false, true, false},
		{Ownership, true, false, true, false},
		{WriteBack, true, false, true, false},
		{FwdReadShared, false, true, false, false},
		{FwdReadExclusive, false, true, false, false},
		{Invalidate, false, true, false, false},
		{SlaveData, false, false, true, false},
		{SlaveAck, false, false, true, false},
		{InvAck, false, false, true, false},
		{HomeData, false, false, false, true},
		{HomeAck, false, false, false, true},
		{Nack, false, false, false, true},
	}
	for _, c := range cases {
		if c.k.Request() != c.request {
			t.Errorf("%v.Request() = %v", c.k, c.k.Request())
		}
		if c.k.ToSlave() != c.toSlave {
			t.Errorf("%v.ToSlave() = %v", c.k, c.k.ToSlave())
		}
		if c.k.ToHome() != c.toHome {
			t.Errorf("%v.ToHome() = %v", c.k, c.k.ToHome())
		}
		if c.k.ToMaster() != c.toMaster {
			t.Errorf("%v.ToMaster() = %v", c.k, c.k.ToMaster())
		}
	}
}

func TestKindStrings(t *testing.T) {
	if ReadShared.String() != "read-shared" || Nack.String() != "nack" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("out-of-range kind has empty name")
	}
}

func TestMessageBytes(t *testing.T) {
	m := &Message{Kind: ReadShared}
	if m.Bytes() != HeaderBytes {
		t.Fatalf("header-only Bytes() = %d", m.Bytes())
	}
	m.HasData = true
	if m.Bytes() != HeaderBytes+topology.BlockSize {
		t.Fatalf("data Bytes() = %d", m.Bytes())
	}
}

func TestGatherContribution(t *testing.T) {
	g := &Gather{ID: 1, Home: 5}
	// A singlecast reply to the gather home is a contribution.
	reply := &Message{Kind: InvAck, Dest: directory.Single(5), Gather: g}
	if !reply.GatherContribution() {
		t.Error("reply to home not a contribution")
	}
	// The invalidation multicast carrying the gather is not.
	var e directory.Entry
	e.MapAdd(1)
	e.MapAdd(2)
	inv := &Message{Kind: Invalidate, Dest: e.Dest(), Gather: g}
	if inv.GatherContribution() {
		t.Error("multicast treated as contribution")
	}
	// A singlecast to a different node is not.
	other := &Message{Kind: InvAck, Dest: directory.Single(6), Gather: g}
	if other.GatherContribution() {
		t.Error("reply to non-home treated as contribution")
	}
	// No gather at all.
	plain := &Message{Kind: SlaveAck, Dest: directory.Single(5)}
	if plain.GatherContribution() {
		t.Error("gatherless message treated as contribution")
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{Kind: HomeData, Src: 3, Dest: directory.Single(1), HasData: true, Master: 1}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}
