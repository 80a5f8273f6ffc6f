"""Certified estimation of matrix p -> p operator norms on weighted atom spaces.

Exact p -> p norms of general complex matrices are out of reach, so the
estimator returns a sandwich: a lower bound certified by an explicit
witness vector, and an upper bound from a nonlinear power iteration on the
entrywise-absolute majorant. One signed-power iteration polishes the lower
bound and runs on the majorant. Generalized permutation matrices (at most
one nonzero per row and column) admit an exact closed form and collapse the
sandwich. Weighted spaces are reduced to unweighted ones by the diagonal
similarity xi -> w^(1/p) * xi before iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import POutOfRange
from .isometry import LampertiForm, LpContext, Operator, lamperti_operator, vector_norm

BOYD_TOL = 1e-10
BOYD_MAX_ITER = 10_000
_ASCENT_MAX_ITER = 400
_POLISH_MAX_ITER = 300
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class NormEstimate:
    """A certified sandwich around an operator norm.

    The witness attains the lower bound: |A witness|_p / |witness|_p equals
    lower to roundoff. upper majorizes the true norm whenever the power
    iteration on the absolute matrix reached its global fixed point, which
    holds for entrywise-positive input.

    From pnorm_estimate, whose ascent starts run as the columns of one
    batch, iterations counts the ascent iterations of every start, plus the
    passes of the polish and of both runs on the majorant.
    """

    lower: float
    upper: float
    witness: np.ndarray
    iterations: int
    converged: bool


def _as_matrix(obj, ctx: LpContext) -> np.ndarray:
    if isinstance(obj, Operator):
        return obj.matrix
    if isinstance(obj, LampertiForm):
        return lamperti_operator(obj, ctx).matrix
    return np.asarray(obj, dtype=complex)


def _require_interior_p(p: float) -> None:
    if not (1.0 < p < math.inf):
        raise POutOfRange("norm estimation needs p strictly between 1 and infinity")


def pnorm_genperm_exact(obj, ctx: LpContext) -> float:
    """Exact norm of a generalized permutation matrix.

    A nonzero entry c at position (x, y) moves mass from atom y to atom x,
    contributing |c| * (w_x / w_y)^(1/p); disjoint supports make the norm
    the largest contribution.
    """
    m = _as_matrix(obj, ctx)
    n = m.shape[0]
    w = ctx.weight_array
    row_used = [False] * n
    best = 0.0
    for y in range(n):
        rows = np.flatnonzero(m[:, y])
        if len(rows) > 1:
            raise ValueError(f"column {y} has {len(rows)} nonzero entries")
        for x in rows:
            if row_used[x]:
                raise ValueError(f"row {x} has more than one nonzero entry")
            row_used[x] = True
            best = max(best, abs(m[x, y]) * (w[x] / w[y]) ** (1.0 / ctx.p))
    return best


def is_generalized_permutation(obj, ctx: LpContext) -> bool:
    m = _as_matrix(obj, ctx)
    nz = m != 0
    return bool(np.all(nz.sum(axis=0) <= 1) and np.all(nz.sum(axis=1) <= 1))


def _reduce(m: np.ndarray, ctx: LpContext) -> np.ndarray:
    # similarity onto the unweighted space; isometric, preserves nonnegativity
    d = ctx.weight_array ** (1.0 / ctx.p)
    return (d[:, None] * m) / d[None, :]


def _unweighted_norm(v: np.ndarray, p: float):
    """The unweighted p-norm of a vector, or of each row of a block."""
    return np.add.reduce(np.abs(v) ** p, axis=-1) ** (1.0 / p)


def boyd_iterate(obj, ctx: LpContext) -> NormEstimate:
    """Nonlinear power iteration for the p-norm of a nonnegative matrix.

    Runs the signed-power iteration from the all-ones vector; for
    nonnegative input its quotient is nondecreasing and converges to the
    norm for entrywise-positive input. The returned upper bound is the
    interpolation bound between the column-sum and row-sum norms, which is
    rigorous for any input.
    """
    p = ctx.p
    _require_interior_p(p)
    m = _as_matrix(obj, ctx)
    if np.any(m.imag != 0.0) or np.any(m.real < 0.0):
        raise ValueError("the power iteration needs an entrywise-nonnegative matrix")
    a = _reduce(m.real, ctx)
    pd = p / (p - 1.0)

    col_sums = a.sum(axis=0).max(initial=0.0)
    row_sums = a.sum(axis=1).max(initial=0.0)
    interp_upper = col_sums ** (1.0 / p) * row_sums ** (1.0 / pd)

    _, x, iterations, converged = _power_iterate(a, p, np.ones(a.shape[0]),
                                                 BOYD_TOL, BOYD_MAX_ITER)
    witness = (x / ctx.weight_array ** (1.0 / p)).astype(complex)
    lower = _rayleigh(m, witness, ctx)
    upper = max(interp_upper, lower)
    return NormEstimate(lower, upper, witness, iterations, converged)


def _rayleigh(m: np.ndarray, xi: np.ndarray, ctx: LpContext) -> float:
    denom = vector_norm(xi, ctx)
    if denom == 0.0:
        return 0.0
    return vector_norm(m @ xi, ctx) / denom


def _signed_power(z: np.ndarray, q: float) -> np.ndarray:
    """|z|^(q-1) sign(z) componentwise, with zeros left at zero.

    Subnormal magnitudes are treated as zero; dividing by them would
    overflow and they carry no direction worth keeping.
    """
    az = np.abs(z)
    out = np.zeros_like(z)
    mask = az > _TINY
    out[mask] = az[mask] ** (q - 1.0) * (z[mask] / az[mask])
    return out


def _power_iterate(a: np.ndarray, p: float, x0: np.ndarray, tol: float,
                   max_iter: int) -> tuple[float, np.ndarray, int, bool]:
    """Signed-power iteration for max |a x|_p on the unweighted unit p-sphere.

    Alternates a with the dual-exponent signed-power maps (Boyd, LAA 9,
    1974; Higham, Numer. Math. 62, 1992). The value is nondecreasing for
    nonnegative input but need not be for complex input, so the best
    iterate is kept rather than the last. The iteration stops once a pass
    ends at or below the previous best plus tol, or once an iterate moves by
    at most 1e-12 (max-abs): it has settled at its fixed point. Returns the
    best value, its iterate, the passes run, and whether it stopped before
    max_iter passes.
    """
    pd = p / (p - 1.0)
    ah = a.conj().T
    nx = _unweighted_norm(x0, p)
    if nx == 0.0:
        return 0.0, x0, 0, True
    x = x0 / nx
    y = a @ x
    val = _unweighted_norm(y, p)
    best_val, best_x = val, x
    for iterations in range(1, max_iter + 1):
        if val == 0.0:
            break
        w = ah @ _signed_power(y / val, p)
        nw = _unweighted_norm(w, pd)
        if nw == 0.0:
            break
        prev = x
        x = _signed_power(w / nw, pd)
        x = x / _unweighted_norm(x, p)
        y = a @ x
        val = _unweighted_norm(y, p)
        settled = val <= best_val + tol
        if val > best_val + 1e-14 * max(1.0, best_val):
            best_val, best_x = val, x
        if settled or np.abs(x - prev).max() <= 1e-12:
            break
    else:
        return best_val, best_x, max_iter, False
    return best_val, best_x, iterations, True


def _apply(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # one matrix-vector product per row: each row is multiplied exactly as a
    # lone vector would be, whatever else is in the batch
    return (a @ rows[..., None])[..., 0]


def _batched_ascent(a: np.ndarray, p: float, x0: np.ndarray,
                    max_iter: int = _ASCENT_MAX_ITER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent of |a x|_p on the unweighted unit p-sphere.

    Each column of the n x k block x0 is one start. Every column keeps its
    own step, backtracking line search and iteration count, and stops on
    its own (zero gradient, or no step above 1e-12 improves it); stopped
    columns leave the live block. A zero column stays zero with value 0.
    The starts are held one per row and every product and sum runs row by
    row, so a column gets the same numbers in any batch as on its own.
    Returns the values, the final iterates as columns, and the per-column
    iteration counts.
    """
    x = np.array(x0.T, dtype=complex, order="C")
    vals = np.zeros(len(x))
    counts = np.zeros(len(x), dtype=int)
    ah = a.conj().T
    wexp = p - 2.0
    nx = _unweighted_norm(x, p)
    # the live starts: their indices, iterates, values and steps
    live = np.flatnonzero(nx > 0.0)
    xl = x[live] / nx[live, None]
    vl = _unweighted_norm(_apply(a, xl), p)
    sl = np.full(live.size, 0.5)
    # a trial point that is exactly zero normalizes to NaN, which never
    # passes the improvement test; its step is halved like any other miss
    with np.errstate(invalid="ignore", divide="ignore"):
        for it in range(1, max_iter + 1):
            if live.size == 0:
                break
            y = _apply(a, xl)
            ay = np.abs(y)
            # |y|^(p-2) y with (sub)zero entries masked (p < 2 would blow up)
            weight = np.zeros_like(ay)
            mask = ay > _TINY
            weight[mask] = ay[mask] ** wexp
            g = _apply(ah, weight * y)
            gn = np.linalg.norm(g, axis=-1)
            improved = np.zeros(live.size, dtype=bool)
            # backtracking line search over the starts still trying; every
            # live step exceeds 1e-12 when it starts
            t = np.flatnonzero(gn > 0.0)
            while t.size:
                xn = xl[t] + sl[t, None] * g[t] / gn[t, None]
                xn /= _unweighted_norm(xn, p)[:, None]
                vn = _unweighted_norm(_apply(a, xn), p)
                old = vl[t]
                up = vn > old + 1e-12 * np.maximum(1.0, old)
                won = t[up]
                xl[won] = xn[up]
                vl[won] = vn[up]
                sl[won] = np.minimum(sl[won] * 2.0, 1.0)
                improved[won] = True
                t = t[~up]
                sl[t] *= 0.5
                t = t[sl[t] > 1e-12]
            if not improved.all():
                stop = ~improved
                x[live[stop]] = xl[stop]
                vals[live[stop]] = vl[stop]
                counts[live[stop]] = it
                live, xl, vl, sl = live[improved], xl[improved], vl[improved], sl[improved]
    x[live] = xl
    vals[live] = vl
    counts[live] = max_iter
    return vals, x.T, counts


def pnorm_estimate(obj, ctx: LpContext, starts: int = 8, seed: int = 0) -> NormEstimate:
    """Sandwich the p -> p norm of a complex matrix.

    Lower bound: best value over multi-start projected gradient ascent,
    polished by the power iteration on the matrix; the starts are the atom
    basis vectors, the power iteration's point on the absolute matrix, and
    seeded random draws, and they run together as the columns of one n x k
    batch. Upper bound: the power iteration value on the entrywise-absolute
    majorant, re-run from the modulus of the best point so the sandwich
    cannot invert. Every run works in reduced (unweighted) coordinates.
    Generalized permutation input collapses to the exact closed form. The
    returned iterations are the ascent iterations of every start, plus the
    passes of the polish and of both majorant runs.
    """
    p = ctx.p
    _require_interior_p(p)
    m = _as_matrix(obj, ctx)
    n = m.shape[0]
    w = ctx.weight_array

    if is_generalized_permutation(m, ctx):
        exact = pnorm_genperm_exact(m, ctx)
        witness = np.zeros(n, dtype=complex)
        best_y, best_val = 0, -1.0
        for y in range(n):
            e = np.zeros(n, dtype=complex)
            e[y] = 1.0
            val = _rayleigh(m, e, ctx)
            if val > best_val:
                best_y, best_val = y, val
        witness[best_y] = 1.0
        # the best point mass attains the closed form up to last-digit roundoff
        return NormEstimate(exact, exact, witness, 0, True)

    a = _reduce(m, ctx)
    # the similarity is a positive diagonal, so this is the reduced |m|
    majorant = np.abs(a)
    first, first_x, iterations, first_converged = _power_iterate(
        majorant, p, np.ones(n), BOYD_TOL, BOYD_MAX_ITER)

    # columns: the atoms, the power-iteration iterate, then the random draws
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((starts, 2, n))
    x0 = np.empty((n, n + 1 + starts), dtype=complex)
    x0[:, :n] = np.eye(n)
    x0[:, n] = first_x
    x0[:, n + 1:] = (draws[:, 0] + 1j * draws[:, 1]).T

    vals, xs, counts = _batched_ascent(a, p, x0)
    iterations += int(counts.sum())
    best = int(np.argmax(vals))
    best_val, best_x = vals[best], xs[:, best]
    # terminal convergence of steepest ascent is slow on flat maxima; the
    # power iteration from the best point closes the remaining gap
    val, x, its, _ = _power_iterate(a, p, best_x, 0.0, _POLISH_MAX_ITER)
    iterations += its
    if val > best_val:
        best_val, best_x = val, x

    witness = (best_x / w ** (1.0 / p)).astype(complex)
    lower = _rayleigh(m, witness, ctx)

    second, _, its, second_converged = _power_iterate(
        majorant, p, np.abs(best_x), BOYD_TOL, BOYD_MAX_ITER)
    iterations += its
    # the majorant dominates every Rayleigh quotient of m; max() only
    # absorbs last-digit roundoff
    upper = max(first, second, lower)
    converged = first_converged and second_converged
    return NormEstimate(lower, upper, witness, iterations, converged)


def norm_witness_disjoint(a: LampertiForm, b: LampertiForm, ctx: LpContext) -> np.ndarray:
    """A normalized point mass on an atom where the two permutations differ.

    The two isometries send it to unit vectors with disjoint supports, so
    their norms add up to exactly 2 (see split_norm_ratio) and the
    entrywise-absolute difference attains operator norm 2 on it.
    """
    if a.phi.perm == b.phi.perm:
        raise ValueError("the permutation parts coincide; no disjoint witness exists")
    n = ctx.algebra.atoms
    c = next(x for x in range(n) if a.phi.perm[x] != b.phi.perm[x])
    xi = np.zeros(n, dtype=complex)
    xi[c] = 1.0 / ctx.algebra.weights[c] ** (1.0 / ctx.p)
    return xi


def split_norm_ratio(a: LampertiForm, b: LampertiForm, xi, ctx: LpContext) -> float:
    """(|A xi|_p + |B xi|_p) / |xi|_p for the two composed isometries.

    Equals 2 exactly on any nonzero vector since both factors preserve the
    norm; on a disjoint witness this certifies that the absolute majorant
    of A - B has norm 2.
    """
    x = np.asarray(xi, dtype=complex).reshape(-1)
    denom = vector_norm(x, ctx)
    if denom == 0.0:
        raise ValueError("witness must be nonzero")
    am = lamperti_operator(a, ctx).matrix
    bm = lamperti_operator(b, ctx).matrix
    return (vector_norm(am @ x, ctx) + vector_norm(bm @ x, ctx)) / denom


def dual_transpose(obj, ctx: LpContext) -> np.ndarray:
    """The weight-adjusted transpose W^-1 A^T W.

    Its p' -> p' norm on the same weighted space equals the p -> p norm of
    the input; with counting measure it is the plain transpose.
    """
    m = _as_matrix(obj, ctx)
    w = ctx.weight_array
    return (m.T * w[None, :]) / w[:, None]
