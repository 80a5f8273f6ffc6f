"""Certified estimation of matrix p -> p operator norms on weighted atom spaces.

Exact p -> p norms of general complex matrices are out of reach, so
pnorm_estimate, the one entry point, returns a sandwich: a lower bound
certified by an explicit witness vector, and an upper bound proved by the
Schur test on the entrywise-absolute majorant. One signed-power iteration
finds the points both bounds are read at: it runs every start of the lower
bound on the matrix, as the rows of one block, and it runs once on the
majorant. On nonnegative input the matrix is its own majorant, and Boyd's
run from the all-ones vector seeds one of the starts, so the lower bound is
never below that run. Generalized permutation matrices (at most one nonzero
per row and column) admit an exact closed form and collapse the sandwich.
Weighted spaces are reduced to unweighted ones by the diagonal similarity
xi -> w^(1/p) * xi before iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import POutOfRange
from .isometry import LpContext, Operator, vector_norm

BOYD_TOL = 1e-10
BOYD_MAX_ITER = 10_000
_START_MAX_ITER = 30
_TINY = np.finfo(float).tiny
# the Schur test is read at each point z lifted to z + eps * max(z) for these eps
_LIFTS = 10.0 ** -np.arange(16.0)


@dataclass(frozen=True)
class NormEstimate:
    """A certified sandwich around an operator norm.

    The witness attains the lower bound: |A witness|_p / |witness|_p equals
    lower to roundoff. upper is proved: the Schur test on the absolute
    matrix bounds its norm, and so the norm of A, for every input.

    iterations counts the power-iteration passes of every start, of the best
    start's continuation, and of the one run on the majorant; converged says
    that the majorant run stopped before its cap. A generalized permutation
    takes none: lower and upper are both its exact norm.
    """

    lower: float
    upper: float
    witness: np.ndarray
    iterations: int
    converged: bool


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, Operator):
        return obj.matrix
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
    m = _as_matrix(obj)
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
    return float(best)


def _reduce(m: np.ndarray, ctx: LpContext) -> np.ndarray:
    # similarity onto the unweighted space; isometric, preserves nonnegativity
    d = ctx.weight_array ** (1.0 / ctx.p)
    return (d[:, None] * m) / d[None, :]


def _unweighted_norm(v: np.ndarray, p: float):
    """The unweighted p-norm of a vector, or of each row of a block."""
    return np.add.reduce(np.abs(v) ** p, axis=-1) ** (1.0 / p)


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
    mask = az > _TINY
    if mask.all():
        # the usual case; the same formula without the gathers and scatter
        return az ** (q - 1.0) * (z / az)
    out = np.zeros_like(z)
    out[mask] = az[mask] ** (q - 1.0) * (z[mask] / az[mask])
    return out


def _apply(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # one matrix-vector product per row: each row is multiplied exactly as a
    # lone vector would be, whatever else is in the block
    return (a @ rows[..., None])[..., 0]


def _power_iterate(a: np.ndarray, p: float, x0: np.ndarray, tol: float,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed-power iteration for max |a x|_p on the unweighted unit p-sphere.

    Alternates a with the dual-exponent signed-power maps (Boyd, LAA 9,
    1974; Higham, Numer. Math. 62, 1992). Each row of the k x n block x0 is
    one start with its own run. The value is nondecreasing for nonnegative
    input but need not be for complex input, so each row keeps its best
    iterate rather than its last. A row stops once a pass ends at or below
    its best plus tol, once its iterate moves by at most 1e-12 (max-abs), or
    on a zero value or a zero dual image; a zero row stays zero with 0
    passes. Every product and sum runs row by row, so a row gets the same
    numbers in any block as on its own. Returns per row the best value, its
    iterate, the passes run, and whether it stopped before max_iter passes.
    """
    pd = p / (p - 1.0)
    ah = a.conj().T
    k = len(x0)
    best_val = np.zeros(k)
    best_x = np.array(x0, dtype=np.result_type(a, x0, float))
    passes = np.zeros(k, dtype=int)
    nx = _unweighted_norm(x0, p)
    # the live rows: their indices, iterates, images, values, best values and
    # best iterates
    live = np.flatnonzero(nx > 0.0)
    x = best_x[live] / nx[live, None]
    y = _apply(a, x)
    val = _unweighted_norm(y, p)
    bv, bx = val, x

    def retire(stop, it):
        rows = live[stop]
        best_val[rows] = bv[stop]
        best_x[rows] = bx[stop]
        passes[rows] = it

    # a zero value ends a row in its first pass; a later pass that ends at
    # zero is settled
    go = val > 0.0
    if not go.all():
        retire(~go, 1)
        live, x, y, val, bv, bx = live[go], x[go], y[go], val[go], bv[go], bx[go]
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        w = _apply(ah, _signed_power(y / val[:, None], p))
        nw = _unweighted_norm(w, pd)
        if not nw.all():
            # a zero dual image ends its row before it is divided by
            go = nw > 0.0
            retire(~go, it)
            live, x, w, nw, bv, bx = live[go], x[go], w[go], nw[go], bv[go], bx[go]
        prev = x
        x = _signed_power(w / nw[:, None], pd)
        x = x / _unweighted_norm(x, p)[:, None]
        y = _apply(a, x)
        val = _unweighted_norm(y, p)
        settled = val <= bv + tol
        gain = val > bv + 1e-14 * np.maximum(1.0, bv)
        bv = np.where(gain, val, bv)
        bx = np.where(gain[:, None], x, bx)
        go = ~settled & (np.abs(x - prev).max(axis=1) > 1e-12)
        if not go.all():
            retire(~go, it)
            live, x, y, val, bv, bx = live[go], x[go], y[go], val[go], bv[go], bx[go]
    retire(slice(None), max_iter)
    converged = np.ones(k, dtype=bool)
    converged[live] = False
    return best_val, best_x, passes, converged


def _schur_upper(b: np.ndarray, p: float, points: np.ndarray) -> float:
    """A proved upper bound on the unweighted p-norm of the nonnegative b.

    For any z > 0 Hoelder gives the Schur test
    |b|_p <= max_j (b^T (b z)^(p-1))_j^(1/p) / z_j^((p-1)/p). It is read at
    the all-ones vector and at every nonnegative, nonzero row x of points,
    lifted to x + eps * max(x) for eps = 1, 1e-1, ..., 1e-15: the fixed point
    of a reducible b has zeros, where the test is infinite, and every lift
    is a valid z. The least value is inflated by 1 + 4(n + 2) times the
    machine epsilon, a constant that covers the roundoff of the reduction
    onto b, of the two n-term products and of the powers.
    """
    n = b.shape[1]
    lifted = points[:, None, :] + _LIFTS[:, None] * points.max(axis=1)[:, None, None]
    z = np.concatenate([np.ones((1, n)), lifted.reshape(-1, n)])
    # on the unit p-sphere no entry of b z exceeds the norm of b, so the powers
    # overflow only where the runs' own |b x|^p would
    z = z / _unweighted_norm(z, p)[:, None]
    s = _apply(b.T, _apply(b, z) ** (p - 1.0))
    bound = np.min(np.max(s ** (1.0 / p) / z ** ((p - 1.0) / p), axis=1))
    return float(bound * (1.0 + 4.0 * (n + 2) * np.finfo(float).eps))


def pnorm_estimate(obj, ctx: LpContext, starts: int = 8, seed: int = 0) -> NormEstimate:
    """Sandwich the p -> p norm of a complex matrix.

    Lower bound: the best value of the signed-power iteration on the matrix
    over its starts, the atom basis vectors, the majorant run's point and
    seeded random draws. They run together as the rows of one block for
    a few passes, and only the best start, if it has not settled, goes on to
    its fixed point. Upper bound: the Schur test on the entrywise-absolute
    majorant, read at the majorant run's point and at the modulus of the
    best point (see _schur_upper). It is proved, so it is at least the norm
    and the sandwich cannot invert. Every run works in reduced (unweighted)
    coordinates. Generalized permutation input collapses to the exact closed
    form. The returned iterations are the passes of every start, of the
    continuation and of the majorant run; converged says that the majorant
    run stopped before its cap.
    """
    p = ctx.p
    _require_interior_p(p)
    m = _as_matrix(obj)
    n = m.shape[0]
    w = ctx.weight_array

    try:
        exact = pnorm_genperm_exact(m, ctx)
    except ValueError:
        pass  # not a generalized permutation: sandwich it below
    else:
        # the first best point mass attains the closed form up to last-digit roundoff
        atoms = np.eye(n, dtype=complex)
        witness = atoms[int(np.argmax([_rayleigh(m, e, ctx) for e in atoms]))].copy()
        return NormEstimate(exact, exact, witness, 0, True)

    a = _reduce(m, ctx)
    # the similarity is a positive diagonal, so this is the reduced |m|
    majorant = np.abs(a)
    _, run_x, passes, run_converged = _power_iterate(
        majorant, p, np.ones((1, n)), BOYD_TOL, BOYD_MAX_ITER)
    iterations = int(passes[0])

    # rows: the atoms, the majorant run's point, then the random draws
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((starts, 2, n))
    x0 = np.empty((n + 1 + starts, n), dtype=complex)
    x0[:n] = np.eye(n)
    x0[n] = run_x[0]
    x0[n + 1:] = draws[:, 0] + 1j * draws[:, 1]

    vals, xs, passes, settled = _power_iterate(a, p, x0, 0.0, _START_MAX_ITER)
    iterations += int(passes.sum())
    best = int(np.argmax(vals))
    best_val, best_x = vals[best], xs[best]
    if not settled[best]:
        # progress on a flat maximum is slow; the best start alone goes on
        # until a pass gains at most a few ulps
        val, x, passes, _ = _power_iterate(a, p, best_x[None], 1e-15 * best_val,
                                           BOYD_MAX_ITER)
        iterations += int(passes[0])
        if val[0] > best_val:
            best_val, best_x = val[0], x[0]

    witness = (best_x / w ** (1.0 / p)).astype(complex)
    lower = _rayleigh(m, witness, ctx)

    upper = _schur_upper(majorant, p, np.stack([run_x[0], np.abs(best_x)]))
    return NormEstimate(lower, upper, witness, iterations, bool(run_converged[0]))
