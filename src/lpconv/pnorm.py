"""Certified estimation of matrix p -> p operator norms on weighted atom spaces.

Exact p -> p norms of general complex matrices are out of reach, so
pnorm_estimate, the one entry point, returns a sandwich: a lower bound
certified by an explicit witness vector, and an upper bound proved by the
Schur test on the entrywise-absolute majorant. One signed-power iteration
finds the points both bounds are read at: it runs every start of the lower
bound on the matrix, as the rows of one block, and it runs once on the
majorant. The best start then goes on alone, with squared extrapolation
(SQUAREM), which crosses a flat maximum in a fraction of the plain passes;
the block and the majorant run take plain passes only. On nonnegative
input the matrix is its own majorant, and Boyd's run from the all-ones
vector seeds one of the starts, so the lower bound is never below that
run. Generalized permutation matrices (at most one nonzero
per row and column) admit an exact closed form and collapse the sandwich.
Weighted spaces are reduced to unweighted ones by the diagonal similarity
xi -> w^(1/p) * xi before iterating.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Frozen, POutOfRange
from .isometry import LpContext, Operator, _reduce, vector_norm

BOYD_TOL = 1e-10
BOYD_MAX_ITER = 10_000
_START_MAX_ITER = 30
_TINY = np.finfo(float).tiny
# the Schur test is read at each point z lifted to z + eps * max(z) for these eps
_LIFTS = 10.0 ** -np.arange(16.0)


class NormEstimate(Frozen):
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


def _extrapolated(a: np.ndarray, p: float, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                  y2: np.ndarray, val2: np.ndarray, reach: np.ndarray):
    """The squared extrapolation (SQUAREM) of the passes x0 -> x1 -> x2, per row.

    With r = x1 - x0 and v = x2 - 2 x1 + x0, the point is
    x0 - 2 alpha r + alpha^2 v for alpha = -|r|_2 / |v|_2 held between
    -reach and -1 (Varadhan and Roland, Scand. J. Statist. 35, 2008), put on
    the unit p-sphere; alpha = -1 gives x2. |v|_2 is zero or above 1e-162,
    so the ratio is finite, and the point is formed divided by alpha^2,
    which cannot overflow. Returns the points, their images under a and
    values, and whether each step was cut to its reach; a row whose point
    has no norm or a zero image gets x2, y2 and val2 instead.
    """
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    nr, nv = _unweighted_norm(r, 2.0), _unweighted_norm(v, 2.0)
    step = np.maximum(np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0.0), 1.0)
    alpha = -np.minimum(step, reach)[:, None]
    x = (x0 / alpha - 2.0 * r) / alpha + v
    norm = _unweighted_norm(x, p)
    x = x / np.where(norm > 0.0, norm, 1.0)[:, None]
    y = _apply(a, x)
    val = _unweighted_norm(y, p)
    dead = ~(val > 0.0)
    if dead.any():
        x = np.where(dead[:, None], x2, x)
        y = np.where(dead[:, None], y2, y)
        val = np.where(dead, val2, val)
    return x, y, val, step >= reach


def _power_iterate(a: np.ndarray, p: float, x0: np.ndarray, tol: float, max_iter: int,
                   extrapolate: bool = False
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed-power iteration for max |a x|_p on the unweighted unit p-sphere.

    Alternates a with the dual-exponent signed-power maps (Boyd, LAA 9,
    1974; Higham, Numer. Math. 62, 1992). Each row of the k x n block x0 is
    one start with its own run. The value is nondecreasing for nonnegative
    input but need not be for complex input, so each row keeps its best
    iterate rather than its last. A row stops once a pass ends at or below
    its best plus tol, once its iterate moves by at most 1e-12 (max-abs), or
    on a zero value or a zero dual image; a zero row stays zero with 0
    passes.

    With extrapolate the passes run in cycles of three. From x the first two
    give x1 and x2, and the third starts from the squared extrapolation of
    x, x1, x2 (see _extrapolated) and gives x3. The cycle ends at x3 if its
    value is at least x2's, and at x2 otherwise; a rejected x3 stops no row.
    Each row bounds its step by a reach that starts at 1, is multiplied by 4
    when a step cut to it is kept and divided by 4 (down to 1) when one is
    rejected, SQUAREM's own step control; an unbounded step keeps
    overshooting a curved ridge. Every pass counts, the extrapolated one
    included, and every stop rule still holds.

    Every product and sum runs row by row, so a row gets the same numbers in
    any block as on its own. Returns per row the best value, its iterate,
    the passes run, and whether it stopped before max_iter passes.
    """
    pd = p / (p - 1.0)
    ah = a.conj().T
    k = len(x0)
    best_val = np.zeros(k)
    best_x = np.array(x0, dtype=np.result_type(a, x0, float))
    passes = np.zeros(k, dtype=int)
    nx = _unweighted_norm(x0, p)
    # the live rows: their indices, iterates, images, values, best values and
    # best iterates, and with extrapolate their reaches and the cycle so far
    # (x and x1 during its second pass; x2, its image, its value and whether
    # the step was cut during its third)
    live = np.flatnonzero(nx > 0.0)
    x = best_x[live] / nx[live, None]
    y = _apply(a, x)
    val = _unweighted_norm(y, p)
    bv, bx = val, x
    reach = np.ones(live.size)
    cycle = []

    def retire(go, it):
        nonlocal live, x, y, val, bv, bx, reach, cycle
        rows = live[~go]
        best_val[rows] = bv[~go]
        best_x[rows] = bx[~go]
        passes[rows] = it
        live, x, y, val, bv, bx, reach = (
            live[go], x[go], y[go], val[go], bv[go], bx[go], reach[go])
        cycle = [c[go] for c in cycle]

    # a zero value ends a row in its first pass; a later pass that ends at
    # zero is settled
    go = val > 0.0
    if not go.all():
        retire(go, 1)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        phase = (it - 1) % 3 if extrapolate else None
        w = _apply(ah, _signed_power(y / val[:, None], p))
        nw = _unweighted_norm(w, pd)
        if not nw.all():
            # a zero dual image ends its row before it is divided by
            go = nw > 0.0
            w, nw = w[go], nw[go]
            retire(go, it)
        prev = x
        x = _signed_power(w / nw[:, None], pd)
        x = x / _unweighted_norm(x, p)[:, None]
        y = _apply(a, x)
        val = _unweighted_norm(y, p)
        rejected = False
        if phase == 2:
            x2, y2, val2, cut = cycle
            rejected = val < val2
            reach = np.where(cut, np.where(rejected, np.maximum(reach / 4.0, 1.0), reach * 4.0),
                             reach)
            if rejected.any():
                x = np.where(rejected[:, None], x2, x)
                y = np.where(rejected[:, None], y2, y)
                val = np.where(rejected, val2, val)
            cycle = []
        settled = val <= bv + tol
        gain = val > bv + 1e-14 * np.maximum(1.0, bv)
        bv = np.where(gain, val, bv)
        bx = np.where(gain[:, None], x, bx)
        go = rejected | (~settled & (np.abs(x - prev).max(axis=1) > 1e-12))
        if phase == 0:
            cycle = [prev, x]
        if not go.all():
            retire(go, it)
        if phase == 1 and live.size:
            # the cycle's third pass starts from the extrapolated point
            x2, y2, val2 = x, y, val
            x, y, val, cut = _extrapolated(a, p, *cycle, x2, y2, val2, reach)
            cycle = [x2, y2, val2, cut]
    converged = np.ones(k, dtype=bool)
    converged[live] = False
    retire(np.zeros(live.size, dtype=bool), max_iter)
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
    a few plain passes, and only the best start, if it has not settled, goes
    on to its fixed point, extrapolating every third pass (see
    _power_iterate). Upper bound: the Schur test on the entrywise-absolute
    majorant, read at the majorant run's point and at the modulus of the
    best point (see _schur_upper). It is proved, so it is at least the norm
    and the sandwich cannot invert. Every run works in reduced (unweighted)
    coordinates. Generalized permutation input collapses to the exact closed
    form. The returned iterations are the signed-power passes of every
    start, of the continuation (its extrapolated passes included) and of the
    majorant run; converged says that the majorant run stopped before its
    cap.
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
        # the best start alone goes on until a pass gains at most a few ulps;
        # plain passes crawl along a flat maximum, extrapolated ones do not
        val, x, passes, _ = _power_iterate(a, p, best_x[None], 1e-15 * best_val,
                                           BOYD_MAX_ITER, extrapolate=True)
        iterations += int(passes[0])
        if val[0] > best_val:
            best_val, best_x = val[0], x[0]

    witness = (best_x / w ** (1.0 / p)).astype(complex)
    lower = _rayleigh(m, witness, ctx)

    upper = _schur_upper(majorant, p, np.stack([run_x[0], np.abs(best_x)]))
    return NormEstimate(lower, upper, witness, iterations, bool(run_converged[0]))
