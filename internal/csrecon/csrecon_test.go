package csrecon

import (
	"math"
	"testing"
	"time"

	"itscs/internal/mat"
	"itscs/internal/motion"
	"itscs/internal/stat"
)

// lowRankFixture builds an exactly rank-2 "coordinate" matrix (constant
// velocity per participant, paper Eq. 13) plus its velocity matrix.
func lowRankFixture(n, t int, seed int64) (x, v *mat.Dense) {
	rng := stat.NewRNG(seed)
	x = mat.New(n, t)
	v = mat.New(n, t)
	tau := 30.0
	for i := 0; i < n; i++ {
		start := rng.Uniform(10_000, 90_000)
		vel := rng.Uniform(-25, 25)
		for j := 0; j < t; j++ {
			x.Set(i, j, start+vel*tau*float64(j))
			v.Set(i, j, vel)
		}
	}
	return x, v
}

// dropCells returns a mask with nDrop random zeros.
func dropCells(n, t, nDrop int, seed int64) *mat.Dense {
	b := mat.Ones(n, t)
	rng := stat.NewRNG(seed)
	for _, cell := range rng.Perm(n * t)[:nDrop] {
		b.Set(cell/t, cell%t, 0)
	}
	return b
}

// maskedMAE is the mean absolute error over masked (b == 0) cells.
func maskedMAE(truth, rec, b *mat.Dense) float64 {
	n, t := truth.Dims()
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			if b.At(i, j) == 0 {
				sum += math.Abs(truth.At(i, j) - rec.At(i, j))
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func testOptions(variant Variant) Options {
	opt := DefaultOptions()
	opt.Variant = variant
	opt.Rank = 4
	return opt
}

func TestReconstructExactLowRankBasic(t *testing.T) {
	x, _ := lowRankFixture(20, 40, 1)
	b := dropCells(20, 40, 200, 2) // 25% missing
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantBasic)
	opt.Rank = 2 // the fixture is exactly rank 2
	rec, err := Reconstruct(s, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maskedMAE(x, rec, b); mae > 1 {
		t.Fatalf("rank-2 completion MAE = %.2f m, want < 1 m", mae)
	}
}

func TestReconstructOverRankOverfitsWithoutStability(t *testing.T) {
	// Design-choice regression: with an over-specified rank, plain
	// completion overfits the observed cells and leaks error into missing
	// ones, while the velocity-temporal term suppresses the spurious rank
	// directions. This is the paper's rationale for the Eq. (23) extension.
	x, v := lowRankFixture(20, 40, 1)
	b := dropCells(20, 40, 200, 2)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := Reconstruct(s, b, nil, testOptions(VariantBasic)) // rank 4
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantVelocityTemporal)
	opt.MaxIters = 2000
	full, err := Reconstruct(s, b, motion.AverageVelocity(v), opt)
	if err != nil {
		t.Fatal(err)
	}
	maeBasic := maskedMAE(x, basic, b)
	maeFull := maskedMAE(x, full, b)
	if maeFull >= maeBasic {
		t.Fatalf("stability term should beat over-ranked basic CS: basic %.1f vs full %.1f", maeBasic, maeFull)
	}
	if maeFull > 5 {
		t.Fatalf("full variant MAE = %.2f m, want < 5 m", maeFull)
	}
}

func TestReconstructVelocityTemporalBeatsBasicUnderHeavyLoss(t *testing.T) {
	x, v := lowRankFixture(20, 40, 3)
	b := dropCells(20, 40, 400, 4) // 50% missing
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	avgV := motion.AverageVelocity(v)

	basic, err := Reconstruct(s, b, nil, testOptions(VariantBasic))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Reconstruct(s, b, avgV, testOptions(VariantVelocityTemporal))
	if err != nil {
		t.Fatal(err)
	}
	maeBasic := maskedMAE(x, basic, b)
	maeFull := maskedMAE(x, full, b)
	if maeFull > maeBasic*1.5 {
		t.Fatalf("velocity variant should not be much worse: basic %.1f vs full %.1f", maeBasic, maeFull)
	}
	if maeFull > 100 {
		t.Fatalf("full variant MAE = %.1f m under 50%% loss, want < 100 m", maeFull)
	}
}

func TestReconstructTemporalVariant(t *testing.T) {
	x, _ := lowRankFixture(15, 30, 5)
	b := dropCells(15, 30, 100, 6)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(s, b, nil, testOptions(VariantTemporal))
	if err != nil {
		t.Fatal(err)
	}
	if mae := maskedMAE(x, rec, b); mae > 150 {
		t.Fatalf("temporal variant MAE = %.1f m, want < 150 m", mae)
	}
}

func TestReconstructPreservesObservedCells(t *testing.T) {
	x, v := lowRankFixture(10, 20, 7)
	b := dropCells(10, 20, 40, 8)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(s, b, motion.AverageVelocity(v), testOptions(VariantVelocityTemporal))
	if err != nil {
		t.Fatal(err)
	}
	// Observed cells should be fit closely (the objective's fitting term).
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			if b.At(i, j) == 1 {
				if diff := math.Abs(rec.At(i, j) - x.At(i, j)); diff > 100 {
					t.Fatalf("observed cell (%d,%d) off by %.1f m", i, j, diff)
				}
			}
		}
	}
}

func TestReconstructDetailedDiagnostics(t *testing.T) {
	x, _ := lowRankFixture(10, 20, 9)
	b := dropCells(10, 20, 30, 10)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReconstructDetailed(s, b, nil, testOptions(VariantBasic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Fatal("expected at least one ASD sweep")
	}
	if len(res.ObjectiveTrace) != res.Iterations+1 {
		t.Fatalf("trace length %d for %d iterations", len(res.ObjectiveTrace), res.Iterations)
	}
	for i := 1; i < len(res.ObjectiveTrace); i++ {
		if res.ObjectiveTrace[i] > res.ObjectiveTrace[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at sweep %d: %v -> %v", i, res.ObjectiveTrace[i-1], res.ObjectiveTrace[i])
		}
	}
	if res.Objective != res.ObjectiveTrace[len(res.ObjectiveTrace)-1] {
		t.Fatal("Objective must equal the last trace entry")
	}
}

func TestReconstructRandomInitStillConverges(t *testing.T) {
	x, _ := lowRankFixture(12, 24, 11)
	b := dropCells(12, 24, 50, 12)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantBasic)
	opt.RandomInit = true
	opt.Rank = 2
	opt.MaxIters = 10_000
	rec, err := Reconstruct(s, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maskedMAE(x, rec, b); mae > 50 {
		t.Fatalf("random init MAE = %.1f m, want < 50 m", mae)
	}
}

func TestWarmStartBeatsRandomInitInIterations(t *testing.T) {
	// The ablation the paper motivates in §III-C.4: the SVD warm start
	// alleviates local optima and converges faster.
	x, _ := lowRankFixture(15, 30, 13)
	b := dropCells(15, 30, 90, 14)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ReconstructDetailed(s, b, nil, testOptions(VariantBasic))
	if err != nil {
		t.Fatal(err)
	}
	optRand := testOptions(VariantBasic)
	optRand.RandomInit = true
	cold, err := ReconstructDetailed(s, b, nil, optRand)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ObjectiveTrace[0] < cold.ObjectiveTrace[0] == false {
		t.Fatalf("warm start should begin at a lower objective: warm %.3g vs cold %.3g",
			warm.ObjectiveTrace[0], cold.ObjectiveTrace[0])
	}
}

func TestReconstructDeterministic(t *testing.T) {
	x, v := lowRankFixture(10, 20, 15)
	b := dropCells(10, 20, 40, 16)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	avgV := motion.AverageVelocity(v)
	a, err := Reconstruct(s, b, avgV, testOptions(VariantVelocityTemporal))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Reconstruct(s, b, avgV, testOptions(VariantVelocityTemporal))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(c, 0) {
		t.Fatal("reconstruction must be deterministic")
	}
}

func TestReconstructInputsNotMutated(t *testing.T) {
	x, v := lowRankFixture(8, 16, 17)
	b := dropCells(8, 16, 20, 18)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	avgV := motion.AverageVelocity(v)
	sC, bC, vC := s.Clone(), b.Clone(), avgV.Clone()
	if _, err := Reconstruct(s, b, avgV, testOptions(VariantVelocityTemporal)); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(sC, 0) || !b.Equal(bC, 0) || !avgV.Equal(vC, 0) {
		t.Fatal("Reconstruct must not mutate inputs")
	}
}

func TestReconstructRankClamped(t *testing.T) {
	x, _ := lowRankFixture(5, 8, 19)
	b := mat.Ones(5, 8)
	opt := testOptions(VariantBasic)
	opt.Rank = 100 // exceeds min(n,t); must clamp, not error
	rec, err := Reconstruct(x, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(x, 1) {
		t.Fatal("full-rank reconstruction of complete data should match input")
	}
}

func TestReconstructValidation(t *testing.T) {
	s := mat.Ones(4, 6)
	b := mat.Ones(4, 6)
	bad := []Options{
		{Rank: -1, Lambda1: 1, Lambda2: 1, Tau: time.Second, MaxIters: 1, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, AutoRankEnergy: 1.5, Lambda1: 1, Lambda2: 1, Tau: time.Second, MaxIters: 1, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, Lambda1: -1, Lambda2: 1, Tau: time.Second, MaxIters: 1, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, Lambda1: 1, Lambda2: -1, Tau: time.Second, MaxIters: 1, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, Lambda1: 1, Lambda2: 1, Tau: 0, MaxIters: 1, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, Lambda1: 1, Lambda2: 1, Tau: time.Second, MaxIters: 0, TerminateRatio: 1e-3, Variant: VariantBasic},
		{Rank: 2, Lambda1: 1, Lambda2: 1, Tau: time.Second, MaxIters: 1, TerminateRatio: 0, Variant: VariantBasic},
		{Rank: 2, Lambda1: 1, Lambda2: 1, Tau: time.Second, MaxIters: 1, TerminateRatio: 1e-3, Variant: Variant(99)},
	}
	for i, opt := range bad {
		if _, err := Reconstruct(s, b, nil, opt); err == nil {
			t.Fatalf("options %d should be rejected", i)
		}
	}
	if _, err := Reconstruct(s, mat.New(2, 2), nil, testOptions(VariantBasic)); err == nil {
		t.Fatal("mismatched B should be rejected")
	}
	if _, err := Reconstruct(mat.New(0, 0), mat.New(0, 0), nil, testOptions(VariantBasic)); err == nil {
		t.Fatal("empty input should be rejected")
	}
	if _, err := Reconstruct(s, b, nil, testOptions(VariantVelocityTemporal)); err == nil {
		t.Fatal("velocity variant without V̄ should be rejected")
	}
	if _, err := Reconstruct(s, b, mat.New(2, 2), testOptions(VariantVelocityTemporal)); err == nil {
		t.Fatal("mismatched V̄ should be rejected")
	}
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		VariantBasic:            "CS",
		VariantTemporal:         "CS+T",
		VariantVelocityTemporal: "CS+VT",
		Variant(42):             "Variant(42)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("Variant(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

// applyDiff computes M·𝕋' row by row with the production kernel.
func applyDiff(m *mat.Dense) *mat.Dense {
	n, t := m.Dims()
	out := mat.New(n, t-1)
	for i := 0; i < n; i++ {
		diffRow(out.RowView(i), m.RowView(i))
	}
	return out
}

// applyDiffAdjoint computes G·𝕋'ᵀ row by row with the production kernel.
func applyDiffAdjoint(g *mat.Dense) *mat.Dense {
	n, tm1 := g.Dims()
	out := mat.New(n, tm1+1)
	for i := 0; i < n; i++ {
		diffAdjointRow(out.RowView(i), g.RowView(i))
	}
	return out
}

func TestApplyDiff(t *testing.T) {
	x, _ := mat.NewFromRows([][]float64{{1, 3, 6, 10}})
	prod := applyDiff(x)
	if prod.Rows() != 1 || prod.Cols() != 3 {
		t.Fatalf("dims = %dx%d", prod.Rows(), prod.Cols())
	}
	want := []float64{2, 3, 4}
	for j, w := range want {
		if prod.At(0, j) != w {
			t.Fatalf("diff[%d] = %v, want %v", j, prod.At(0, j), w)
		}
	}
}

func TestApplyDiffAdjointMatchesExplicitOperator(t *testing.T) {
	// The adjoint kernel must agree with multiplying by the materialized
	// t×(t−1) operator's transpose.
	tt := 6
	op := mat.New(tt, tt-1)
	for j := 0; j < tt-1; j++ {
		op.Set(j, j, -1)
		op.Set(j+1, j, 1)
	}
	g, _ := mat.NewFromRows([][]float64{
		{1, 2, 3, 4, 5},
		{-1, 0, 1, 0, -1},
	})
	want, err := g.MulT(op)
	if err != nil {
		t.Fatal(err)
	}
	got := applyDiffAdjoint(g)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("adjoint kernel disagrees:\n%v\nvs\n%v", got, want)
	}
	// ⟨M·𝕋', G⟩ must equal ⟨M, G·𝕋'ᵀ⟩ (adjoint property).
	m, _ := mat.NewFromRows([][]float64{
		{0, 2, 1, 5, 3, 3},
		{9, 8, 7, 6, 5, 4},
	})
	lhs, err := applyDiff(m).Dot(g)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := m.Dot(applyDiffAdjoint(g))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lhs-rhs) > 1e-10 {
		t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestNearestFill(t *testing.T) {
	s, _ := mat.NewFromRows([][]float64{
		{10, 0, 0, 40},
		{0, 20, 0, 0},
		{0, 0, 0, 0},
	})
	b, _ := mat.NewFromRows([][]float64{
		{1, 0, 0, 1},
		{0, 1, 0, 0},
		{0, 0, 0, 0},
	})
	filled := nearestFill(s, b)
	// Row 0: left neighbour wins ties, right wins when strictly closer.
	if filled.At(0, 1) != 10 { // dist 1 left vs 2 right
		t.Fatalf("(0,1) = %v, want 10", filled.At(0, 1))
	}
	if filled.At(0, 2) != 40 { // dist 2 left vs 1 right
		t.Fatalf("(0,2) = %v, want 40", filled.At(0, 2))
	}
	// Row 1: only one trusted value, fills everywhere.
	for j := 0; j < 4; j++ {
		if filled.At(1, j) != 20 {
			t.Fatalf("(1,%d) = %v, want 20", j, filled.At(1, j))
		}
	}
	// Row 2: fully untrusted, falls back to column means of trusted cells.
	if filled.At(2, 0) != 10 || filled.At(2, 1) != 20 || filled.At(2, 3) != 40 {
		t.Fatalf("column-mean fallback wrong: %v %v %v",
			filled.At(2, 0), filled.At(2, 1), filled.At(2, 3))
	}
	if filled.At(2, 2) != 0 { // no trusted cell anywhere in column 2
		t.Fatalf("(2,2) = %v, want 0", filled.At(2, 2))
	}
	// Original untouched.
	if s.At(0, 1) != 0 {
		t.Fatal("nearestFill must not mutate input")
	}
}

func TestNearestFillTieBreaksLeft(t *testing.T) {
	s, _ := mat.NewFromRows([][]float64{{5, 0, 9}})
	b, _ := mat.NewFromRows([][]float64{{1, 0, 1}})
	filled := nearestFill(s, b)
	if filled.At(0, 1) != 5 {
		t.Fatalf("tie should resolve left: got %v", filled.At(0, 1))
	}
}

func TestReconstructSingleColumn(t *testing.T) {
	// Degenerate single-slot input: temporal term is skipped, plain
	// completion still works.
	s := mat.Filled(5, 1, 100)
	b := mat.Ones(5, 1)
	b.Set(2, 0, 0)
	s.Set(2, 0, 0)
	opt := testOptions(VariantTemporal)
	rec, err := Reconstruct(s, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := rec.Dims(); r != 5 || c != 1 {
		t.Fatalf("dims = %dx%d", r, c)
	}
}
