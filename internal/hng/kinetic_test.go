package hng

import (
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointprocess"
	"repro/internal/rng"
)

// checkEquivalence asserts the equivalence gate: the kinetic maintainer's
// materialized graph equals a from-scratch Rebuild at the same positions,
// levels and alive set, edge-for-edge.
func checkEquivalence(t *testing.T, k *Kinetic, spec Spec, step int) {
	t.Helper()
	ref, err := Rebuild(k.Positions(), k.Levels(), k.AliveMask(), spec)
	if err != nil {
		t.Fatalf("step %d: Rebuild: %v", step, err)
	}
	got := k.Materialize()
	if diff := graph.FirstDiff(got, ref.CSR); diff != "" {
		t.Fatalf("step %d: incremental != rebuild: %s", step, diff)
	}
}

// runKineticEquivalence drives random moves and deaths through a Kinetic
// and checks the gate after every batch.
func runKineticEquivalence(t *testing.T, spec Spec, seed rng.Seed) {
	t.Helper()
	box := geom.Box(20, 20)
	pts := deployment(t, 20, 2, seed)
	h, err := Build(pts, spec, rng.Sub(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	checkEquivalence(t, k, spec, -1)

	gen := rng.Sub(seed, 2)
	n := len(pts)
	for step := 0; step < 25; step++ {
		for op := 0; op < 8; op++ {
			u := int32(gen.IntN(n))
			if !k.AliveMask()[u] {
				continue
			}
			if gen.Float64() < 0.12 {
				k.Remove(u)
				continue
			}
			// Mostly small displacements, occasionally a long jump.
			p := k.Positions()[u]
			if gen.Float64() < 0.2 {
				p = geom.Point{X: gen.Float64() * 20, Y: gen.Float64() * 20}
			} else {
				p.X += (gen.Float64() - 0.5) * 0.8
				p.Y += (gen.Float64() - 0.5) * 0.8
				p = box.Clamp(p)
			}
			k.Move(u, p)
		}
		checkEquivalence(t, k, spec, step)
	}
	if k.Stats().LinkRecomputes == 0 {
		t.Fatal("no link recomputes recorded — repairs are not happening")
	}
}

func TestKineticEquivalenceUnderMotion(t *testing.T) {
	for _, gmp := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		runKineticEquivalence(t, DefaultSpec(), 31)
		runtime.GOMAXPROCS(prev)
	}
}

func TestKineticEquivalenceUnprunedAndFlat(t *testing.T) {
	// No pruning (unbounded groups) and a taller hierarchy both exercise
	// different group/MST paths.
	runKineticEquivalence(t, Spec{P: 0.3, MaxChildren: 0}, 7)
	runKineticEquivalence(t, Spec{P: 0.45, MaxChildren: 2}, 13)
}

func TestKineticMassDeathReachesEmpty(t *testing.T) {
	// Killing every node one by one must keep the gate at every prefix and
	// end at the empty graph (top chases the survivors down).
	box := geom.Box(12, 12)
	pts := deployment(t, 12, 1.5, 3)
	spec := DefaultSpec()
	h, err := Build(pts, spec, rng.Sub(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	order := rng.Sub(3, 2).Perm(len(pts))
	for i, u := range order {
		k.Remove(int32(u))
		if i%7 == 0 || i == len(order)-1 {
			checkEquivalence(t, k, spec, i)
		}
	}
	if got := k.Materialize(); got.EdgeCount != 0 {
		t.Fatalf("graph not empty after all deaths: %d edges", got.EdgeCount)
	}
}

func TestKineticCoincidentPoints(t *testing.T) {
	// Duplicate positions stress the (distance, index) tie-breaks: moves
	// landing exactly on occupied coordinates must still match the rebuild.
	box := geom.Box(4, 4)
	pts := []geom.Point{
		{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 3, Y: 3}, {X: 3, Y: 3},
		{X: 1, Y: 3}, {X: 3, Y: 1}, {X: 2, Y: 2}, {X: 2, Y: 2},
		{X: 1, Y: 1}, {X: 3, Y: 3}, {X: 0.5, Y: 0.5}, {X: 3.5, Y: 0.5},
	}
	spec := Spec{P: 0.4, MaxChildren: 2}
	h, err := Build(pts, spec, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	checkEquivalence(t, k, spec, -1)
	targets := []geom.Point{
		{X: 1, Y: 1}, {X: 3, Y: 3}, {X: 2, Y: 2}, {X: 1, Y: 3},
	}
	gen := rng.Sub(17, 5)
	for step := 0; step < 30; step++ {
		u := int32(gen.IntN(len(pts)))
		if !k.AliveMask()[u] {
			continue
		}
		if step%9 == 8 {
			k.Remove(u)
		} else {
			k.Move(u, targets[gen.IntN(len(targets))])
		}
		checkEquivalence(t, k, spec, step)
	}
}

func TestKineticStatsScaleWithRegion(t *testing.T) {
	// A small displacement must touch far fewer links than the node count —
	// the "repair cost ~ O(affected region), not O(n)" claim in its
	// cheapest testable form.
	box := geom.Box(30, 30)
	pts := deployment(t, 30, 4, 23)
	h, err := Build(pts, DefaultSpec(), rng.Sub(23, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKinetic(h, box)
	n := len(pts)
	gen := rng.Sub(23, 2)
	const trials = 50
	k.ResetStats()
	for i := 0; i < trials; i++ {
		u := int32(gen.IntN(n))
		p := k.Positions()[u]
		p.X += (gen.Float64() - 0.5) * 0.2
		p.Y += (gen.Float64() - 0.5) * 0.2
		k.Move(u, box.Clamp(p))
	}
	s := k.ResetStats()
	perMove := float64(s.LinkRecomputes) / trials
	if perMove > float64(n)/10 {
		t.Fatalf("small moves relink %.1f nodes on average (n=%d) — repair is not localized", perMove, n)
	}
}

// oracleRecomputeGroup is the definition-level group recompute the
// net-change recomputeGroup must match: retract every edge the group
// emitted, sort a copy of its members by (distance-to-parent, child), and
// re-emit every direct and chain edge through the refcounted emit path.
func oracleRecomputeGroup(k *Kinetic, key uint64, g *kGroup) {
	k.stats.GroupRecomputes++
	for _, e := range g.edges {
		u, v := graph.Unpack(e)
		k.retract(u, v)
	}
	g.edges = g.edges[:0]
	if len(g.members) == 0 {
		delete(k.groups, key)
		return
	}
	parent := int32(key >> 8)
	members := slices.Clone(g.members)
	slices.SortFunc(members, k.compareMembers)
	maxKids := k.spec.MaxChildren
	for i, child := range members {
		var e uint64
		if maxKids == 0 || i < maxKids {
			e = graph.Pack(parent, child)
		} else {
			e = graph.Pack(members[i-maxKids], child)
		}
		g.edges = append(g.edges, e)
		u, v := graph.Unpack(e)
		k.emit(u, v)
	}
}

// kineticPair drives one operation sequence through the production
// maintainer and the oracle-backed one in lockstep.
type kineticPair struct {
	k, o *Kinetic
	spec Spec
}

func newKineticPair(t testing.TB, pts []geom.Point, box geom.Rect, spec Spec, seed rng.Seed) *kineticPair {
	t.Helper()
	h, err := Build(pts, spec, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &kineticPair{k: NewKinetic(h, box), o: newKinetic(h, box, oracleRecomputeGroup), spec: spec}
}

func (kp *kineticPair) move(u int32, p geom.Point) {
	kp.k.Move(u, p)
	kp.o.Move(u, p)
}

func (kp *kineticPair) remove(u int32) {
	kp.k.Remove(u)
	kp.o.Remove(u)
}

// check asserts that the production maintainer matches the oracle in
// graph, every stats counter and the emission refcounts, that it still
// equals a from-scratch Rebuild, and that every group's members are in
// (distance-to-parent, child) order.
func (kp *kineticPair) check(t testing.TB, step int) {
	t.Helper()
	k, o := kp.k, kp.o
	if diff := graph.FirstDiff(k.Materialize(), o.Materialize()); diff != "" {
		t.Fatalf("step %d: net-change != oracle: %s", step, diff)
	}
	if ks, os := k.Stats(), o.Stats(); ks != os {
		t.Fatalf("step %d: stats %+v, oracle %+v", step, ks, os)
	}
	if !maps.Equal(k.ref, o.ref) {
		t.Fatalf("step %d: refcounts differ from the oracle (%d vs %d entries)", step, len(k.ref), len(o.ref))
	}
	for key, g := range k.groups {
		if !slices.IsSortedFunc(g.members, k.compareMembers) {
			t.Fatalf("step %d: group %#x members out of order: %v", step, key, g.members)
		}
	}
	ref, err := Rebuild(k.Positions(), k.Levels(), k.AliveMask(), kp.spec)
	if err != nil {
		t.Fatalf("step %d: Rebuild: %v", step, err)
	}
	if diff := graph.FirstDiff(k.Materialize(), ref.CSR); diff != "" {
		t.Fatalf("step %d: incremental != rebuild: %s", step, diff)
	}
}

// latticePoint snaps a draw onto a 0.25-spaced lattice, so moves land on
// occupied coordinates and on positions equidistant from a common parent.
func latticePoint(gen *rand.Rand, box geom.Rect) geom.Point {
	nx := int(box.Width()/0.25) + 1
	ny := int(box.Height()/0.25) + 1
	return geom.Point{X: float64(gen.IntN(nx)) * 0.25, Y: float64(gen.IntN(ny)) * 0.25}
}

func TestKineticNetChangeMatchesOracle(t *testing.T) {
	lattice := func(side float64, n int, seed rng.Seed) []geom.Point {
		gen := rng.New(seed)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = latticePoint(gen, geom.Box(side, side))
		}
		return pts
	}
	cases := []struct {
		name string
		side float64
		pts  []geom.Point
		spec Spec
	}{
		{"default", 16, deployment(t, 16, 2, 41), DefaultSpec()},
		{"unpruned", 16, deployment(t, 16, 2, 43), Spec{P: 0.3, MaxChildren: 0}},
		{"lattice-default", 4, lattice(4, 90, 47), DefaultSpec()},
		{"lattice-unpruned", 4, lattice(4, 90, 53), Spec{P: 0.35, MaxChildren: 0}},
		{"lattice-chain", 3, lattice(3, 60, 59), Spec{P: 0.4, MaxChildren: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			box := geom.Box(tc.side, tc.side)
			kp := newKineticPair(t, tc.pts, box, tc.spec, 61)
			kp.check(t, -1)
			gen := rng.Sub(67, 1)
			n := len(tc.pts)
			for step := 0; step < 150; step++ {
				u := int32(gen.IntN(n))
				if !kp.k.AliveMask()[u] {
					continue
				}
				p := kp.k.Positions()[u]
				switch r := gen.Float64(); {
				case r < 0.08:
					kp.remove(u)
					kp.check(t, step)
					continue
				case r < 0.45:
					p = latticePoint(gen, box)
				case r < 0.55:
					p = geom.Point{X: gen.Float64() * tc.side, Y: gen.Float64() * tc.side}
				default:
					p.X += (gen.Float64() - 0.5) * 0.6
					p.Y += (gen.Float64() - 0.5) * 0.6
					p = box.Clamp(p)
				}
				kp.move(u, p)
				kp.check(t, step)
			}
			if kp.k.Stats().GroupRecomputes == 0 {
				t.Fatal("no group recomputes recorded — the comparison is vacuous")
			}
		})
	}
}

// FuzzHNGKinetic decodes a small lattice deployment, a spec and an
// operation sequence from the fuzz input and checks the net-change
// maintainer against the oracle and a from-scratch Rebuild after every
// operation. Layout: spec byte, level-seed byte, point count, two bytes per
// point, then three bytes per operation (node, kind/x, y).
func FuzzHNGKinetic(f *testing.F) {
	// Seed inputs: one random well-formed input per spec.
	for i := 0; i < 4; i++ {
		seed := make([]byte, 3+2*24+3*40)
		gen := rng.Sub(71, uint64(i))
		for j := range seed {
			seed[j] = byte(gen.IntN(256))
		}
		seed[0], seed[2] = byte(i), 22
		f.Add(seed)
	}
	specs := []Spec{
		DefaultSpec(),
		{P: 0.3, MaxChildren: 0},
		{P: 0.45, MaxChildren: 1},
		{P: 0.35, MaxChildren: 2},
	}
	const maxOps = 48
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		spec := specs[int(data[0])%len(specs)]
		seed := rng.Seed(data[1])
		n := 2 + int(data[2])%31
		data = data[3:]
		if len(data) < 2*n {
			return
		}
		// Coordinates on a 0.25-spaced 17×17 lattice over a 4×4 box.
		coord := func(b byte) float64 { return float64(b%17) * 0.25 }
		box := geom.Box(4, 4)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: coord(data[2*i]), Y: coord(data[2*i+1])}
		}
		data = data[2*n:]
		kp := newKineticPair(t, pts, box, spec, seed)
		kp.check(t, -1)
		for step := 0; len(data) >= 3 && step < maxOps; step++ {
			u := int32(int(data[0]) % n)
			kind, y := data[1], data[2]
			data = data[3:]
			if !kp.k.AliveMask()[u] {
				continue
			}
			if kind%8 == 0 {
				kp.remove(u)
			} else {
				kp.move(u, geom.Point{X: coord(kind >> 3), Y: coord(y)})
			}
			kp.check(t, step)
		}
	})
}

// BenchmarkHNGKineticMove times one small-displacement Move on a ~9k-point
// λ=16 deployment (the BenchmarkBuildHNG scale) and reports the repair
// work per move: pruning groups recomputed, refcount transitions
// (KineticStats.EdgeChanges) and edges the overlay actually inserted or
// deleted (graph.Delta mutations).
func BenchmarkHNGKineticMove(b *testing.B) {
	box := geom.Box(24, 24)
	pts := pointprocess.Poisson(box, 16, rng.New(7))
	h, err := Build(pts, DefaultSpec(), rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	k := NewKinetic(h, box)
	gen := rng.New(9)
	muts0 := k.Delta().Mutations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(gen.IntN(len(pts)))
		p := k.Positions()[u]
		p.X += (gen.Float64() - 0.5) * 0.2
		p.Y += (gen.Float64() - 0.5) * 0.2
		k.Move(u, box.Clamp(p))
	}
	b.StopTimer()
	s, moves := k.Stats(), float64(b.N)
	b.ReportMetric(float64(s.GroupRecomputes)/moves, "groups/move")
	b.ReportMetric(float64(s.EdgeChanges)/moves, "edge-changes/move")
	b.ReportMetric(float64(k.Delta().Mutations()-muts0)/moves, "delta-mutations/move")
}
