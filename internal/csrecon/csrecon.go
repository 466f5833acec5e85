// Package csrecon implements the CORRECT stage of I(TS,CS): low-rank
// matrix completion of the sensory matrices via an L·Rᵀ factorization
// minimized with Alternating Steepest Descent (paper Algorithm 2,
// following Tanner & Wei's ASD).
//
// Three objective variants mirror the paper's evaluation:
//
//	Basic             min ‖(LRᵀ)∘B − S‖²F + λ₁(‖L‖²F + ‖R‖²F)                    (Eq. 20)
//	Temporal          … + λ₂‖LRᵀ·𝕋'‖²F                                           (temporal stability only)
//	VelocityTemporal  … + λ₂‖LRᵀ·𝕋' − τ·V̄'‖²F                                    (Eq. 23)
//
// where 𝕋' is the difference operator of Eq. (24) with its first column
// dropped: Eq. (24) as printed maps the first slot to itself rather than to
// a difference, which would wrongly penalize the absolute position of the
// first slot (and, in the velocity variant, compare a position against a
// velocity). Dropping that column applies the constraint exactly to the
// t−1 slot-to-slot transitions the paper reasons about.
package csrecon

import (
	"errors"
	"fmt"
	"math"
	"time"

	"itscs/internal/mat"
	"itscs/internal/stat"
)

// Variant selects the reconstruction objective.
type Variant int

const (
	// VariantBasic is plain regularized matrix completion (Eq. 20).
	VariantBasic Variant = iota + 1
	// VariantTemporal adds the temporal-stability term without velocity.
	VariantTemporal
	// VariantVelocityTemporal is the full velocity-improved objective (Eq. 23).
	VariantVelocityTemporal
)

// String implements fmt.Stringer for diagnostics and reports.
func (v Variant) String() string {
	switch v {
	case VariantBasic:
		return "CS"
	case VariantTemporal:
		return "CS+T"
	case VariantVelocityTemporal:
		return "CS+VT"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures CS_Reconstruct.
type Options struct {
	// Rank is the factorization rank bound r. Zero selects the rank
	// automatically: the smallest rank whose singular values capture
	// AutoRankEnergy of the nearest-filled matrix's spectral mass — the
	// paper's Fig. 4(a) energy criterion ("determined by experiment").
	Rank int
	// AutoRankEnergy is the spectral mass fraction for automatic rank
	// selection; only consulted when Rank == 0. Zero means 0.95.
	AutoRankEnergy float64
	// Lambda1 weighs the nuclear-norm surrogate (rank minimization).
	Lambda1 float64
	// Lambda2 weighs the temporal/velocity stability term; ignored by
	// VariantBasic.
	Lambda2 float64
	// Tau is the slot duration τ used to convert velocities to distances.
	Tau time.Duration
	// MaxIters bounds the ASD iterations.
	MaxIters int
	// TerminateRatio stops ASD when the relative objective improvement of
	// a full L+R sweep falls below it (Algorithm 2's ratio).
	TerminateRatio float64
	// Variant selects the objective.
	Variant Variant
	// Seed drives the random fallback initialization used when the SVD
	// warm start is disabled or fails.
	Seed int64
	// RandomInit skips the SVD warm start (used by the ablation bench).
	RandomInit bool
	// FixedStepSize replaces the exact analytic line search with a fixed
	// step size (used by the ablation bench). Zero selects the exact
	// line search, which is both faster to converge and parameter-free.
	FixedStepSize float64
}

// DefaultOptions returns the configuration used in the evaluation.
//
// Lambda1 is kept tiny: the factors carry position-scale (10⁴–10⁵ m)
// values, so even a small weight regularizes effectively. Lambda2 is set
// so that absorbing a kilometers-scale fault into the factors costs more
// in stability penalty than rejecting it saves in fitting error — at
// λ₂ ≥ ~0.5 a spike of size ε adds ≈2λ₂ε² of stability penalty against
// the ε² of fitting gain, so faults that leak past detection cannot bend
// the reconstruction toward themselves.
func DefaultOptions() Options {
	return Options{
		Rank:           0, // automatic, via the spectral-energy rule below
		AutoRankEnergy: 0.985,
		Lambda1:        1e-6,
		Lambda2:        3.0,
		Tau:            30 * time.Second,
		MaxIters:       250,
		TerminateRatio: 1e-7,
		Variant:        VariantVelocityTemporal,
		Seed:           1,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case o.Rank < 0:
		return fmt.Errorf("csrecon: rank must be >= 0, got %d", o.Rank)
	case o.AutoRankEnergy < 0 || o.AutoRankEnergy > 1:
		return fmt.Errorf("csrecon: auto-rank energy %v outside [0,1]", o.AutoRankEnergy)
	case o.Lambda1 < 0 || o.Lambda2 < 0:
		return fmt.Errorf("csrecon: negative lambda (%v, %v)", o.Lambda1, o.Lambda2)
	case o.Tau <= 0:
		return fmt.Errorf("csrecon: tau must be positive, got %v", o.Tau)
	case o.MaxIters < 1:
		return fmt.Errorf("csrecon: max iters must be >= 1, got %d", o.MaxIters)
	case o.TerminateRatio <= 0:
		return fmt.Errorf("csrecon: terminate ratio must be positive, got %v", o.TerminateRatio)
	case o.FixedStepSize < 0:
		return fmt.Errorf("csrecon: negative fixed step size %v", o.FixedStepSize)
	}
	switch o.Variant {
	case VariantBasic, VariantTemporal, VariantVelocityTemporal:
	default:
		return fmt.Errorf("csrecon: unknown variant %d", int(o.Variant))
	}
	return nil
}

// Reconstruct completes one axis of the dataset.
//
// s is the sensory matrix, b the Generalized Binary Index Matrix (1 where a
// value is observed AND currently trusted), and avgV the Average Velocity
// Matrix V̄ for this axis — required by VariantVelocityTemporal and ignored
// otherwise (may be nil).
//
// It returns the dense reconstruction Ŝ = L·Rᵀ.
func Reconstruct(s, b, avgV *mat.Dense, opt Options) (*mat.Dense, error) {
	result, err := ReconstructDetailed(s, b, avgV, opt)
	if err != nil {
		return nil, err
	}
	return result.SHat, nil
}

// Result carries the reconstruction with convergence diagnostics.
type Result struct {
	// SHat is the reconstructed matrix L·Rᵀ.
	SHat *mat.Dense
	// Factors holds the final factorization (SHat = L·Rᵀ). It can be fed
	// back into ReconstructWarm to warm-start a later reconstruction of an
	// overlapping or re-masked problem.
	Factors Factors
	// WarmStarted reports whether the sweeps started from caller-provided
	// factors rather than the truncated-SVD (or random) initialization.
	WarmStarted bool
	// Iterations is the number of ASD sweeps performed.
	Iterations int
	// Objective is the final value of the optimization objective.
	Objective float64
	// ObjectiveTrace records the objective after every sweep.
	ObjectiveTrace []float64
}

// Factors is an L·Rᵀ factorization: L is n×r, R is t×r. The zero value
// means "no factors" and always falls back to a cold start.
type Factors struct {
	L, R *mat.Dense
}

// usableFor reports whether the factors can seed an n×t reconstruction
// under opt: both present, shapes consistent, and the rank compatible with
// an explicitly requested opt.Rank. A mismatch is not an error — streaming
// callers hit it whenever the fleet roster, window size, or configured rank
// changes — so the caller falls back to the cold initialization instead.
func (f Factors) usableFor(n, t int, opt Options) bool {
	if f.L == nil || f.R == nil {
		return false
	}
	ln, lr := f.L.Dims()
	rt, rr := f.R.Dims()
	if ln != n || rt != t || lr != rr || lr < 1 || lr > minInt(n, t) {
		return false
	}
	if opt.Rank > 0 && lr != opt.Rank {
		return false
	}
	return true
}

// ReconstructDetailed is Reconstruct with convergence diagnostics.
func ReconstructDetailed(s, b, avgV *mat.Dense, opt Options) (*Result, error) {
	return ReconstructWarm(s, b, avgV, nil, opt)
}

// ReconstructWarm is ReconstructDetailed with an optional warm start: when
// warm holds factors of a compatible shape, the ASD sweeps start from a
// copy of them instead of the truncated-SVD initialization, which lets a
// sliding-window caller reuse the previous window's factorization. On any
// shape or rank incompatibility (or nil warm) it silently falls back to
// the cold initialization; Result.WarmStarted reports which path ran.
func ReconstructWarm(s, b, avgV *mat.Dense, warm *Factors, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n, t := s.Dims()
	if n == 0 || t == 0 {
		return nil, fmt.Errorf("csrecon: empty sensory matrix")
	}
	if br, bc := b.Dims(); br != n || bc != t {
		return nil, fmt.Errorf("csrecon: B is %dx%d, want %dx%d", br, bc, n, t)
	}
	prob, err := newProblem(s, b, avgV, opt, n, t)
	if err != nil {
		return nil, err
	}
	var l, r *mat.Dense
	warmStarted := false
	if warm != nil && warm.usableFor(n, t, opt) {
		// The sweeps mutate the factors in place; copy so the caller's
		// previous-window result stays intact.
		l, r = warm.L.Clone(), warm.R.Clone()
		warmStarted = true
	} else {
		l, r, err = initFactors(s, b, opt)
		if err != nil {
			return nil, err
		}
	}
	res, err := prob.run(l, r, opt)
	if err != nil {
		return nil, err
	}
	res.WarmStarted = warmStarted
	return res, nil
}

// problem precomputes the constant pieces of the objective.
type problem struct {
	s, b *mat.Dense
	// sMasked = s∘b: the trusted observations.
	sMasked *mat.Dense
	// useStability records whether the 𝕋' term is active (false for
	// VariantBasic or single-column input). The operator itself is applied
	// row by row in O(n·t) (diffRow, diffAdjointRow and the fused passes)
	// rather than as a materialized matrix.
	useStability bool
	// target is τ·V̄ restricted to the transition columns (n×(t−1));
	// all zeros for VariantTemporal.
	target  *mat.Dense
	lambda1 float64
	lambda2 float64
	// fixedStep, when positive, replaces the exact line search.
	fixedStep float64
	// ws is the scratch workspace shared by every sweep; allocated once
	// per factorization rank so steady-state ASD performs no heap
	// allocations.
	ws *workspace
}

// workspace carries the residuals across half-steps and holds every
// intermediate the ASD sweeps need, sized once for the problem's n×t and
// the factorization rank.
type workspace struct {
	rank int
	// synced is set once resync has filled e1 and g; step refuses to run
	// before that.
	synced bool
	// e1 = (LRᵀ−S)∘B (n×t) and, when the 𝕋' term is active,
	// g = LRᵀ·𝕋' − target (n×(t−1)) are the residuals at the current
	// factors. step keeps them current with the update its line search
	// already formed; resync recomputes them exactly.
	e1, g *mat.Dense
	// work (n×t) holds W = E1 + λ₂·G·𝕋'ᵀ while a gradient is formed, then
	// the search image D·Rᵀ (or L·Dᵀ) for the line search and the residual
	// update, and L·Rᵀ after resync.
	work *mat.Dense
	// gl = ∇_L f (n×r), gr = ∇_R f (t×r).
	gl, gr *mat.Dense
	// lineRows[i] holds row i's ⟨E1,P1⟩, ‖P1‖², ⟨G,P3⟩, ‖P3‖². They are
	// summed in row order, so num and den do not depend on the worker
	// count.
	lineRows [][4]float64
	// alpha is the step the update pass applies.
	alpha float64
	// The fused row passes, bound once: handing a func literal to
	// mat.ParallelRows on every call would allocate.
	formW, lineSums, update func(lo, hi int)
}

// ensure returns the workspace for factorization rank r.Cols(), allocating
// it on first use or when the rank changes (which happens only between
// reconstructions, never inside the sweep loop).
func (p *problem) ensure(r *mat.Dense) *workspace {
	rank := r.Cols()
	if p.ws != nil && p.ws.rank == rank {
		return p.ws
	}
	n, t := p.s.Dims()
	ws := &workspace{
		rank:     rank,
		e1:       mat.New(n, t),
		work:     mat.New(n, t),
		gl:       mat.New(n, rank),
		gr:       mat.New(t, rank),
		lineRows: make([][4]float64, n),
	}
	if p.useStability {
		ws.g = mat.New(n, t-1)
	}
	ws.formW = func(lo, hi int) { p.formW(ws, lo, hi) }
	ws.lineSums = func(lo, hi int) { p.lineSums(ws, lo, hi) }
	ws.update = func(lo, hi int) { p.update(ws, lo, hi) }
	p.ws = ws
	return ws
}

func newProblem(s, b, avgV *mat.Dense, opt Options, n, t int) (*problem, error) {
	sMasked, err := s.Hadamard(b)
	if err != nil {
		return nil, fmt.Errorf("csrecon: mask sensory matrix: %w", err)
	}
	p := &problem{
		s:         s,
		b:         b,
		sMasked:   sMasked,
		lambda1:   opt.Lambda1,
		lambda2:   opt.Lambda2,
		fixedStep: opt.FixedStepSize,
	}
	if opt.Variant == VariantBasic || t < 2 {
		return p, nil
	}
	p.useStability = true
	p.target = mat.New(n, t-1)
	if opt.Variant == VariantVelocityTemporal {
		if avgV == nil {
			return nil, fmt.Errorf("csrecon: %v requires the average velocity matrix", opt.Variant)
		}
		if vr, vc := avgV.Dims(); vr != n || vc != t {
			return nil, fmt.Errorf("csrecon: V̄ is %dx%d, want %dx%d", vr, vc, n, t)
		}
		tau := opt.Tau.Seconds()
		for i := 0; i < n; i++ {
			vrow := avgV.RowView(i)
			trow := p.target.RowView(i)
			for j := 1; j < t; j++ {
				trow[j-1] = vrow[j] * tau
			}
		}
	}
	return p, nil
}

// diffRow writes one row of M·𝕋', where 𝕋' is Eq. (24)'s operator with
// the first column dropped: dst[j] = src[j+1] − src[j] is the transition
// into slot j+1, aligned with +τ·V̄(i,j+1). The sign is irrelevant for the
// pure temporal penalty but must match the velocity target in the full
// variant. len(dst) must be len(src)−1.
func diffRow(dst, src []float64) {
	for j := range dst {
		dst[j] = src[j+1] - src[j]
	}
}

// diffAdjointRow writes one row of G·𝕋'ᵀ: dst[j] = g[j−1] − g[j], with
// out-of-range terms zero. len(dst) must be len(g)+1.
func diffAdjointRow(dst, g []float64) {
	last := len(g)
	dst[0] = -g[0]
	for j := 1; j < last; j++ {
		dst[j] = g[j-1] - g[j]
	}
	dst[last] = g[last-1]
}

// initFactors produces the ASD starting point: nearest-value fill of the
// missing cells followed by a truncated SVD (Algorithm 2 lines 2-8), or a
// small random factorization when RandomInit is set. When opt.Rank is zero
// the rank is chosen by the spectral-energy criterion.
func initFactors(s, b *mat.Dense, opt Options) (l, r *mat.Dense, err error) {
	n, t := s.Dims()
	maxRank := minInt(n, t)
	if opt.RandomInit {
		rank := opt.Rank
		if rank == 0 {
			// No spectrum to consult without the warm start; a quarter of
			// the minimal dimension is a generous over-parameterization
			// that the regularizers rein in.
			rank = maxInt(2, maxRank/4)
		}
		if rank > maxRank {
			rank = maxRank
		}
		rng := stat.NewRNG(opt.Seed).Child("asd-init")
		scale := s.MaxAbs()
		if scale == 0 {
			scale = 1
		}
		scale = math.Sqrt(scale / float64(rank))
		l = mat.New(n, rank)
		r = mat.New(t, rank)
		l.Apply(func(int, int, float64) float64 { return rng.NormFloat64() * scale })
		r.Apply(func(int, int, float64) float64 { return rng.NormFloat64() * scale })
		return l, r, nil
	}
	filled := nearestFill(s, b)
	full, err := mat.SVD(filled)
	if err != nil {
		return nil, nil, fmt.Errorf("csrecon: warm start SVD: %w", err)
	}
	rank := opt.Rank
	if rank == 0 {
		energy := opt.AutoRankEnergy
		if energy == 0 {
			energy = 0.95
		}
		rank = maxInt(2, full.RankForEnergy(energy))
	}
	if rank > maxRank {
		rank = maxRank
	}
	l = mat.New(n, rank)
	r = mat.New(t, rank)
	for k := 0; k < rank; k++ {
		root := math.Sqrt(full.S[k])
		for i := 0; i < n; i++ {
			l.Set(i, k, full.U.At(i, k)*root)
		}
		for j := 0; j < t; j++ {
			r.Set(j, k, full.V.At(j, k)*root)
		}
	}
	return l, r, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nearestFill replaces untrusted cells (b == 0) with the nearest trusted
// value in the same row (ties resolve to the left neighbour). Rows with no
// trusted cells are filled with the column means of trusted cells in other
// rows, or zero if the whole matrix is untrusted. Rows are independent
// once the column stats are in, so the fill runs row-block parallel with
// per-worker index scratch.
func nearestFill(s, b *mat.Dense) *mat.Dense {
	n, t := s.Dims()
	out := s.Clone()
	colSum := make([]float64, t)
	colCount := make([]float64, t)
	for i := 0; i < n; i++ {
		brow := b.RowView(i)
		srow := s.RowView(i)
		for j := 0; j < t; j++ {
			if brow[j] != 0 {
				colSum[j] += srow[j]
				colCount[j]++
			}
		}
	}
	mat.ParallelRows(n, 4*t, func(lo, hi int) {
		left := make([]int, t)
		right := make([]int, t)
		for i := lo; i < hi; i++ {
			brow := b.RowView(i)
			srow := s.RowView(i)
			orow := out.RowView(i)
			// Nearest trusted index on each side of every cell.
			idx := -1
			for j := 0; j < t; j++ {
				if brow[j] != 0 {
					idx = j
				}
				left[j] = idx
			}
			idx = -1
			for j := t - 1; j >= 0; j-- {
				if brow[j] != 0 {
					idx = j
				}
				right[j] = idx
			}
			for j := 0; j < t; j++ {
				if brow[j] != 0 {
					continue
				}
				switch {
				case left[j] < 0 && right[j] < 0:
					// Fully untrusted row: fall back to the column mean.
					if colCount[j] > 0 {
						orow[j] = colSum[j] / colCount[j]
					} else {
						orow[j] = 0
					}
				case left[j] < 0:
					orow[j] = srow[right[j]]
				case right[j] < 0:
					orow[j] = srow[left[j]]
				case right[j]-j < j-left[j]:
					orow[j] = srow[right[j]]
				default:
					orow[j] = srow[left[j]]
				}
			}
		}
	})
	return out
}

// reconcileEvery is the sweep interval at which the carried residuals and
// the incrementally tracked objective are replaced by an exact
// recomputation. Both updates accumulate floating-point drift over
// hundreds of sweeps; an exact evaluation costs one factor product —
// cheap relative to the 4·K products of the K sweeps it anchors — and
// keeps the reported trace trustworthy.
const reconcileEvery = 25

// run performs the ASD sweeps (Algorithm 2 lines 9-18).
//
// The objective is tracked incrementally: along a fixed direction every
// term is quadratic in the step size, so the exact line search that yields
// α* = num/den also yields the new objective f(α*) = f(0) − num²/den.
// The residuals are carried the same way (see step). Both are reconciled
// with an exact evaluation every reconcileEvery sweeps and once at exit.
//
// Termination requires a small *non-negative* relative improvement: with a
// fixed step size a sweep can increase the objective (negative drop), and
// a negative ratio must read as "not converged", not as "converged". A
// zero objective (already at the optimum) terminates immediately.
func (p *problem) run(l, r *mat.Dense, opt Options) (*Result, error) {
	obj, err := p.resync(l, r)
	if err != nil {
		return nil, err
	}
	trace := make([]float64, 0, opt.MaxIters+1)
	trace = append(trace, obj)
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		dropL, err := p.step(l, r, true)
		if err != nil {
			return nil, err
		}
		dropR, err := p.step(l, r, false)
		if err != nil {
			return nil, err
		}
		next := obj - dropL - dropR
		if (iters+1)%reconcileEvery == 0 {
			if next, err = p.resync(l, r); err != nil {
				return nil, err
			}
		}
		trace = append(trace, next)
		if improved := obj - next; improved >= 0 {
			rel := 0.0
			if obj > 0 {
				rel = improved / obj
			}
			if rel < opt.TerminateRatio {
				obj = next
				iters++
				break
			}
		}
		obj = next
	}
	// Reconcile once at exit so Result.Objective is the exact objective at
	// the final factors, not the drifted incremental estimate. resync
	// leaves L·Rᵀ in the workspace: that is the reconstruction.
	if obj, err = p.resync(l, r); err != nil {
		return nil, err
	}
	trace[len(trace)-1] = obj
	return &Result{
		SHat:           p.ws.work.Clone(),
		Factors:        Factors{L: l, R: r},
		Iterations:     iters,
		Objective:      obj,
		ObjectiveTrace: trace,
	}, nil
}

// errNotSynced reports a sweep attempted before resync initialised the
// carried residuals: a bug in the caller, not an input error.
var errNotSynced = errors.New("csrecon: ASD step before the residuals were initialised")

// resync recomputes the carried residuals exactly at (L, R) — L·Rᵀ into
// ws.work, E1 = (LRᵀ−S)∘B and G = LRᵀ·𝕋' − target — and returns the exact
// objective of Eq. (23) (or its reduced variants).
//
// It is the one place the residuals are initialised, and step requires
// them to be current at the factors it is given: call resync before the
// first step on a (problem, factors) pair and again after changing the
// factors by any means other than step.
func (p *problem) resync(l, r *mat.Dense) (float64, error) {
	ws := p.ensure(r)
	ws.synced = false
	if err := l.MulTInto(ws.work, r); err != nil {
		return 0, fmt.Errorf("csrecon: residuals: %w", err)
	}
	n, _ := p.s.Dims()
	for i := 0; i < n; i++ {
		m := ws.work.RowView(i)
		b := p.b.RowView(i)[:len(m)]
		sm := p.sMasked.RowView(i)[:len(m)]
		e := ws.e1.RowView(i)[:len(m)]
		for j, v := range m {
			e[j] = v*b[j] - sm[j]
		}
		if p.useStability {
			g := ws.g.RowView(i)
			diffRow(g, m)
			tg := p.target.RowView(i)[:len(g)]
			for j := range g {
				g[j] -= tg[j]
			}
		}
	}
	ws.synced = true
	obj := ws.e1.FrobeniusNorm2() + p.lambda1*(l.FrobeniusNorm2()+r.FrobeniusNorm2())
	if p.useStability {
		obj += p.lambda2 * ws.g.FrobeniusNorm2()
	}
	return obj, nil
}

// step performs one steepest-descent update on L (updateL) or R with the
// exact analytic line search: every objective term is quadratic in the step
// size α along a fixed direction, so α* has a closed form. It returns the
// exact objective decrease num²/den achieved by the step.
//
// The residuals are affine in the updated factor, so the step moves them
// by −α times the line search's images of the direction:
// E1 ← E1 − α·P1 and G ← G − α·P3. One half-step therefore costs two
// factor products (the gradient and the search image) and no
// recomputation of L·Rᵀ. The carried residuals must be current at (l, r)
// on entry (see resync) and are current at the updated factors on return.
func (p *problem) step(l, r *mat.Dense, updateL bool) (drop float64, err error) {
	if p.ws == nil || !p.ws.synced {
		return 0, errNotSynced
	}
	grad, err := p.gradient(l, r, updateL)
	if err != nil {
		return 0, err
	}
	if grad.MaxAbs() == 0 {
		return 0, nil
	}
	num, den, err := p.lineStats(l, r, grad, updateL)
	if err != nil {
		return 0, err
	}
	if den <= 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 0, nil
	}
	alpha := num / den
	if p.fixedStep > 0 {
		alpha = p.fixedStep
	}
	if alpha == 0 {
		return 0, nil
	}
	// Exact objective change along the quadratic: f(0) − f(α) = 2α·num − α²·den
	// (num²/den at the exact minimizer; possibly negative for a fixed step).
	drop = 2*alpha*num - alpha*alpha*den
	anchor := r
	if updateL {
		anchor = l
	}
	if err := anchor.AxpyInPlace(-alpha, grad); err != nil {
		return 0, err
	}
	// ws.work still holds the search image lineStats formed.
	p.ws.alpha = alpha
	p.rows(p.ws.update)
	return drop, nil
}

// gradient computes ∇_L f = 2·W·R + 2λ₁·L (updateL) or
// ∇_R f = 2·Wᵀ·L + 2λ₁·R into the workspace buffer ws.gl or ws.gr, valid
// until the next gradient call for the same factor. W = E1 + λ₂·G·𝕋'ᵀ
// folds the stability term's adjoint into the data residual, so each
// gradient is one factor product.
func (p *problem) gradient(l, r *mat.Dense, updateL bool) (*mat.Dense, error) {
	ws := p.ws
	w := ws.e1
	if p.useStability {
		p.rows(ws.formW)
		w = ws.work
	}
	grad, anchor := ws.gr, r
	var err error
	if updateL {
		grad, anchor = ws.gl, l
		err = w.MulInto(grad, r) // W·R : n×r
	} else {
		err = w.TMulInto(grad, l) // Wᵀ·L : t×r
	}
	if err != nil {
		return nil, fmt.Errorf("csrecon: gradient: %w", err)
	}
	grad.Scale(2)
	if err := grad.AxpyInPlace(2*p.lambda1, anchor); err != nil {
		return nil, err
	}
	return grad, nil
}

// lineStats computes the quadratic coefficients of f along −grad:
// f(α) = f(0) − 2α·num + α²·den, so the exact minimizer is α* = num/den.
//
// For the L step with direction D: P1 = (D·Rᵀ)∘B, P3 = D·Rᵀ·𝕋',
// num = ⟨E1,P1⟩ + λ₁⟨L,D⟩ + λ₂⟨G,P3⟩, den = ‖P1‖² + λ₁‖D‖² + λ₂‖P3‖²,
// and symmetrically for the R step with P1 = (L·Dᵀ)∘B, P3 = L·Dᵀ·𝕋'.
// The search image D·Rᵀ (or L·Dᵀ) is left in ws.work; P1 and P3 are
// formed from it on the fly, in one row pass with the four sums.
func (p *problem) lineStats(l, r, grad *mat.Dense, updateL bool) (num, den float64, err error) {
	ws := p.ws
	anchor := r
	if updateL {
		anchor = l
		err = grad.MulTInto(ws.work, r) // D·Rᵀ : n×t
	} else {
		err = l.MulTInto(ws.work, grad) // L·Dᵀ : n×t
	}
	if err != nil {
		return 0, 0, fmt.Errorf("csrecon: line search: %w", err)
	}
	p.rows(ws.lineSums)
	var e1p1, p1p1, gp3, p3p3 float64
	for _, s := range ws.lineRows {
		e1p1 += s[0]
		p1p1 += s[1]
		gp3 += s[2]
		p3p3 += s[3]
	}
	dotAnchor, err := anchor.Dot(grad)
	if err != nil {
		return 0, 0, err
	}
	num = e1p1 + p.lambda1*dotAnchor + p.lambda2*gp3
	den = p1p1 + p.lambda1*grad.FrobeniusNorm2() + p.lambda2*p3p3
	return num, den, nil
}

// rows runs one of the workspace's bound row passes over all n rows,
// row-block parallel when the work pays for the fork/join. Every pass
// writes only its own rows, so results do not depend on the worker count.
func (p *problem) rows(pass func(lo, hi int)) {
	n, t := p.s.Dims()
	mat.ParallelRows(n, 4*t, pass)
}

// formW writes W = E1 + λ₂·G·𝕋'ᵀ into ws.work for rows [lo, hi).
func (p *problem) formW(ws *workspace, lo, hi int) {
	for i := lo; i < hi; i++ {
		w := ws.work.RowView(i)
		diffAdjointRow(w, ws.g.RowView(i))
		e := ws.e1.RowView(i)[:len(w)]
		for j := range w {
			w[j] = e[j] + p.lambda2*w[j]
		}
	}
}

// lineSums forms P1 = work∘B and P3 = work·𝕋' for rows [lo, hi) and
// stores each row's ⟨E1,P1⟩, ‖P1‖², ⟨G,P3⟩, ‖P3‖² in ws.lineRows.
func (p *problem) lineSums(ws *workspace, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := ws.work.RowView(i)
		b := p.b.RowView(i)[:len(d)]
		e := ws.e1.RowView(i)[:len(d)]
		var e1p1, p1p1, gp3, p3p3 float64
		for j, v := range d {
			p1 := v * b[j]
			e1p1 += e[j] * p1
			p1p1 += p1 * p1
		}
		if p.useStability {
			g := ws.g.RowView(i)
			next := d[1:][:len(g)]
			for j, gv := range g {
				p3 := next[j] - d[j]
				gp3 += gv * p3
				p3p3 += p3 * p3
			}
		}
		ws.lineRows[i] = [4]float64{e1p1, p1p1, gp3, p3p3}
	}
}

// update applies E1 ← E1 − α·P1 and G ← G − α·P3 for rows [lo, hi), with
// P1 and P3 re-formed from the search image in ws.work exactly as
// lineSums formed them.
func (p *problem) update(ws *workspace, lo, hi int) {
	alpha := ws.alpha
	for i := lo; i < hi; i++ {
		d := ws.work.RowView(i)
		b := p.b.RowView(i)[:len(d)]
		e := ws.e1.RowView(i)[:len(d)]
		for j, v := range d {
			e[j] -= alpha * (v * b[j])
		}
		if p.useStability {
			g := ws.g.RowView(i)
			next := d[1:][:len(g)]
			for j := range g {
				g[j] -= alpha * (next[j] - d[j])
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
