package main

import "testing"

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  map[uint64]int64
	}{
		{
			name: "leaf",
			spans: []Span{
				{ID: 1, Start: 5, End: 25},
			},
			want: map[uint64]int64{1: 20},
		},
		{
			name: "nested",
			spans: []Span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 30},
				{ID: 3, Parent: 2, Start: 15, End: 20},
				{ID: 4, Parent: 1, Start: 50, End: 60},
			},
			want: map[uint64]int64{1: 70, 2: 15, 3: 5, 4: 10},
		},
		{
			name: "concurrent children count once",
			spans: []Span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 40},
				{ID: 3, Parent: 1, Start: 30, End: 70},
				{ID: 4, Parent: 1, Start: 35, End: 45},
			},
			want: map[uint64]int64{1: 40, 2: 30, 3: 40, 4: 10},
		},
		{
			name: "child outside its parent",
			spans: []Span{
				{ID: 1, Start: 0, End: 50},
				{ID: 2, Parent: 1, Start: 40, End: 80},
				{ID: 3, Parent: 1, Start: 60, End: 90},
			},
			want: map[uint64]int64{1: 40, 2: 40, 3: 30},
		},
		{
			name: "child covers its parent",
			spans: []Span{
				{ID: 1, Start: 10, End: 20},
				{ID: 2, Parent: 1, Start: 0, End: 30},
			},
			want: map[uint64]int64{1: 0, 2: 30},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := SelfTimes(tc.spans)
			for id, want := range tc.want {
				if got[id] != want {
					t.Errorf("self(%d) = %d, want %d", id, got[id], want)
				}
			}
		})
	}
}

func TestTracerTrees(t *testing.T) {
	tr := newTracer()
	root := tr.Root("rep")
	a := root.Child("a")
	a.Child("a1").End()
	a.End()
	root.End()
	other := tr.Root("rep")
	other.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootTrace, rootID := root.IDs()
	if rootTrace != rootID || byName["a"].Parent != rootID || byName["a1"].Parent != byName["a"].ID {
		t.Errorf("bad tree: %+v", spans)
	}
	for _, s := range spans {
		if s.Name != "rep" && s.Trace != rootTrace {
			t.Errorf("%s in trace %d, want %d", s.Name, s.Trace, rootTrace)
		}
	}
	if n := len(rootsNamed(spans, "rep")); n != 2 {
		t.Errorf("%d roots, want 2", n)
	}

	var untraced *Tracer
	sp := untraced.Root("x")
	sp.Child("y").End()
	sp.End()
	if untraced.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {1_000_000, 0.99},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	d := make(dist, 40)
	for i := range d {
		d[i] = float64(i + 1)
	}
	if v, _ := d.tail(); v != 30 {
		t.Errorf("tail of 1..40 = %v, want 30 (ten samples beyond it)", v)
	}
}
