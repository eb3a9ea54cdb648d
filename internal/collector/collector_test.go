package collector

import (
	"bytes"
	"io"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
)

var testTime = time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)

func buildWorld(t *testing.T) *gen.Internet {
	t.Helper()
	in, err := gen.Build(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAssign(t *testing.T) {
	in := buildWorld(t)
	cols := Assign(in, 3)
	if len(cols) != 3 {
		t.Fatalf("got %d collectors", len(cols))
	}
	total := 0
	seen := make(map[asrel.ASN]bool)
	for _, c := range cols {
		total += len(c.Peers)
		for _, p := range c.Peers {
			if seen[p] {
				t.Errorf("vantage %s assigned twice", p)
			}
			seen[p] = true
		}
		if c.Name == "" || !c.ID.Is4() {
			t.Error("collector identity incomplete")
		}
	}
	if total != len(in.Vantages) {
		t.Errorf("assigned %d vantages of %d", total, len(in.Vantages))
	}
	// n<1 clamps to one collector.
	if got := Assign(in, 0); len(got) != 1 {
		t.Error("Assign(0) did not clamp")
	}
}

func TestDumpAllMismatchedWriters(t *testing.T) {
	in := buildWorld(t)
	cols := Assign(in, 2)
	if err := DumpAll(in, asrel.IPv6, cols, []io.Writer{io.Discard}, testTime); err == nil {
		t.Error("mismatched writer count accepted")
	}
}

func TestEndToEndDumpAndIngest(t *testing.T) {
	in := buildWorld(t)
	cols := Assign(in, 2)

	dump := func(af asrel.AF) *dataset.Dataset {
		t.Helper()
		bufs := []io.Writer{&bytes.Buffer{}, &bytes.Buffer{}}
		if err := DumpAll(in, af, cols, bufs, testTime); err != nil {
			t.Fatal(err)
		}
		d := dataset.New(af)
		for _, b := range bufs {
			if err := d.AddMRT(bytes.NewReader(b.(*bytes.Buffer).Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	d6 := dump(asrel.IPv6)
	d4 := dump(asrel.IPv4)

	if d6.NumUniquePaths() == 0 || d4.NumUniquePaths() == 0 {
		t.Fatalf("empty datasets: v6=%d v4=%d", d6.NumUniquePaths(), d4.NumUniquePaths())
	}
	// Every observed link must exist in the generated plane.
	for _, k := range d6.Links() {
		if !in.Graph6.HasLink(k.Lo, k.Hi) {
			t.Fatalf("observed v6 link %s not in ground truth", k)
		}
	}
	for _, k := range d4.Links() {
		if !in.Graph4.HasLink(k.Lo, k.Hi) {
			t.Fatalf("observed v4 link %s not in ground truth", k)
		}
	}
	// Observed vantages are exactly (a subset of) the configured ones.
	vset := make(map[asrel.ASN]bool)
	for _, v := range in.Vantages {
		vset[v] = true
	}
	for _, v := range d6.Vantages() {
		if !vset[v] {
			t.Fatalf("unexpected v6 vantage %s", v)
		}
	}
	// LocPrf feeds appear only on designated vantages.
	for p := range d6.Paths() {
		if p.HasLocPrf && !in.VantageLocPrf[p.Vantage] {
			t.Fatalf("LocPrf from non-iBGP vantage %s", p.Vantage)
		}
		if !p.HasLocPrf && in.VantageLocPrf[p.Vantage] {
			t.Fatalf("missing LocPrf from iBGP vantage %s", p.Vantage)
		}
	}
	// No drops expected from synthetic archives.
	if sets, loops := d6.Dropped(); sets != 0 || loops != 0 {
		t.Errorf("unexpected drops: sets=%d loops=%d", sets, loops)
	}
	// The dual-stack join must be nonempty and a subset of the ground
	// truth dual-stack links.
	duals := dataset.DualStack(d4, d6)
	if len(duals) == 0 {
		t.Fatal("no dual-stack links observed")
	}
	truthDuals := make(map[asrel.LinkKey]bool)
	for _, k := range in.DualStackLinks() {
		truthDuals[k] = true
	}
	for _, k := range duals {
		if !truthDuals[k] {
			t.Fatalf("observed dual link %s not dual in ground truth", k)
		}
	}
	// The v6 path counts should be near vantages × origins.
	if d6.NumUniquePaths() < len(in.Vantages)*10 {
		t.Errorf("suspiciously few v6 paths: %d", d6.NumUniquePaths())
	}
}

func TestDumpDeterminism(t *testing.T) {
	in := buildWorld(t)
	cols := Assign(in, 1)
	var a, b bytes.Buffer
	if err := DumpAll(in, asrel.IPv6, cols, []io.Writer{&a}, testTime); err != nil {
		t.Fatal(err)
	}
	if err := DumpAll(in, asrel.IPv6, cols, []io.Writer{&b}, testTime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical dumps differ byte-wise")
	}
	if a.Len() == 0 {
		t.Error("empty archive")
	}
}
