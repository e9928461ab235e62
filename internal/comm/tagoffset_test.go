package comm

import "testing"

// recEndpoint records the (global rank, tag) pairs Send/Recv were
// invoked with.
type recEndpoint struct {
	sends, recvs [][2]int
}

func (r *recEndpoint) Send(to, tag int, payload any, words int64) {
	r.sends = append(r.sends, [2]int{to, tag})
}

func (r *recEndpoint) Recv(from, tag int) (any, int64) {
	r.recvs = append(r.recvs, [2]int{from, tag})
	return nil, 0
}

func (r *recEndpoint) Cost([]int) Cost { return WallClock{} }

// Mark is an optional capability for the Capability tests.
func (r *recEndpoint) Mark() string { return "rec" }

type marker interface{ Mark() string }

func TestTagOffsetRelabels(t *testing.T) {
	ep := &recEndpoint{}
	base := NewGroup(ep, WorldRanks(4), 1)
	const off = 7 << 24
	v := WithTagOffset(base, off)
	if v.Size() != 4 || v.Rank() != 1 || v.GlobalRank(3) != 3 {
		t.Fatalf("geometry not kept")
	}
	v.Send(0, 0x7c0001, nil, 1)
	v.Recv(2, 0x7d0002)
	if got := ep.sends[0]; got != [2]int{0, 0x7c0001 + off} {
		t.Fatalf("send went to %#x, want tag %#x", got, 0x7c0001+off)
	}
	if got := ep.recvs[0]; got != [2]int{2, 0x7d0002 + off} {
		t.Fatalf("recv was %#x, want tag %#x", got, 0x7d0002+off)
	}
}

func TestTagOffsetZeroIsIdentity(t *testing.T) {
	base := NewGroup(&recEndpoint{}, WorldRanks(2), 0)
	if got := WithTagOffset(base, 0); got != base {
		t.Fatalf("zero offset should return the communicator unchanged")
	}
}

func TestTagOffsetComposesAndSurvivesSplits(t *testing.T) {
	ep := &recEndpoint{}
	base := NewGroup(ep, WorldRanks(8), 2)
	v := WithTagOffset(WithTagOffset(base, 1<<24), 2<<24)
	sub, _ := v.SplitEqual(2)
	sub.Send(0, 5, nil, 1)
	if got := ep.sends[0][1]; got != 5+3<<24 {
		t.Fatalf("split view send tag %#x, want %#x (stacked offsets sum)", got, 5+3<<24)
	}
	sub2, _ := v.SplitModulo(2)
	sub2.Recv(0, 9)
	sub3, _ := v.SplitStarts([]int{0, 8})
	sub3.Recv(0, 11)
	v.Subset(0, 8).Recv(0, 13)
	for i, want := range []int{9 + 3<<24, 11 + 3<<24, 13 + 3<<24} {
		if ep.recvs[i][1] != want {
			t.Fatalf("recv tag %d: %#x, want %#x", i, ep.recvs[i][1], want)
		}
	}
}

// passThrough is a middleware endpoint that stays transparent to
// capability lookups (the chaos wrapper's shape).
type passThrough struct{ Endpoint }

func (p passThrough) Unwrap() Endpoint { return p.Endpoint }

// TestCapability: optional endpoint interfaces are found on the
// endpoint itself and through middleware that unwraps, survive splits,
// and are hidden by a tag-offset view.
func TestCapability(t *testing.T) {
	base := NewGroup(&recEndpoint{}, WorldRanks(4), 3)
	sub, _ := base.SplitEqual(2)
	wrapped := sub.WithEndpoint(passThrough{sub.Endpoint()})
	for name, c := range map[string]Communicator{"world": base, "split": sub, "middleware": wrapped} {
		if m, ok := Capability[marker](c); !ok || m.Mark() != "rec" {
			t.Errorf("%s: capability not found", name)
		}
	}
	if _, ok := Capability[marker](WithTagOffset(base, 1<<24)); ok {
		t.Error("a tag-offset view must hide the endpoint's capabilities")
	}
	if _, ok := Capability[interface{ Missing() }](base); ok {
		t.Error("found a capability the endpoint does not have")
	}
}
