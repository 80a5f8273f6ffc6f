"""Translation operators of a finite group and the algebras they generate.

With counting measure as the invariant measure, left and right translation
act as 0/1 permutation matrices, the span of the left translations is an
algebra of dimension |G|, and the commutant of the right translations (the
exact 0/1 indicators of the orbits of G acting diagonally on the right of
G x G, each labelled by the value of x y^-1 on its cells (x, y)) recovers
the same span. Away from exponent 2 the invertible isometries inside such
a span are generalized permutation matrices with unimodular entries,
enumerated here by a support pattern search.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, Frozen, NotGroupLike, P2Unsupported, POutOfRange
from .groups import TABLE_BUDGET, FiniteGroup, convolver_basis_exact

if TYPE_CHECKING:
    from .isometry import LpContext, Operator

# one unit per search SVD or one-row path, each about 0.1 ms of CPU
ENUM_WORK_BUDGET = 10_000
ENUM_TOL = 1e-9


class ConvolutionContext(Frozen):
    """A finite group acting on itself, with counting measure and an exponent."""

    group: FiniteGroup
    p: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise POutOfRange("convolution contexts need p strictly between 1 and infinity")

    def lp_context(self) -> LpContext:
        from .isometry import LpContext
        from .measure import FiniteMeasureAlgebra
        return LpContext(FiniteMeasureAlgebra((1.0,) * self.group.order), self.p)


def left_regular(ctx: ConvolutionContext, s: int) -> Operator:
    """Left translation: (L_s xi)(x) = xi(s^-1 x), a permutation matrix."""
    from .isometry import Operator
    g = ctx.group
    n = g.order
    if not 0 <= s < n:
        raise ValueError("element index out of range")
    m = np.zeros((n, n), dtype=complex)
    for y in range(n):
        m[g.mul(s, y), y] = 1.0
    return Operator(ctx.lp_context(), m)


class AlgebraBasis(Frozen):
    """Linearly independent matrices whose span is unital and closed under products.

    Validation keeps an SVD u diag(s) vh of the stacked, flattened matrices,
    built by _frame from their k x k Gram matrix: the rows of vh are an
    orthonormal frame of the span, which membership tests, the closure
    checks and the isometry search read instead of the stack. elements are
    always complex; the frame is float64 when every imaginary part of the
    stack is exactly zero and its Gram certifies it (a regular presentation,
    or any real change of basis of one), and complex otherwise. Every later
    product keeps the frame's dtype. A closure refusal stops at the pairwise
    check's first failing left factor. Past condition 1e6 the frame's error,
    about eps * cond, can exceed the 1e-9 bounds, so a refusal there says
    that the frame cannot certify the span.
    """

    n: int
    p: float
    elements: tuple[np.ndarray, ...]
    _u: np.ndarray
    _s: np.ndarray
    _vh: np.ndarray

    def __post_init__(self):
        if not self.elements:
            raise ValueError("basis must be nonempty")
        mats = [np.asarray(m) for m in self.elements]
        for a in mats:
            if a.shape != (self.n, self.n):
                raise ValueError(f"basis matrices must be {self.n} x {self.n}")
        k = len(mats)
        stacked = np.array(mats, dtype=complex)
        if not np.all(np.isfinite(stacked)):
            raise ValueError("basis matrices must be finite")
        stacked.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stacked))
        u, s, vh = _frame(stacked.reshape(k, -1))
        if len(s) < k or s[-1] <= 1e-9 * s[0]:
            raise ValueError("basis matrices are linearly dependent")
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_vh", vh)
        cond = float(s[0] / s[-1])
        uncertified = f"at condition number {cond:.3e} the frame cannot certify that the span"
        if self.coordinates(np.eye(self.n)) is None:
            raise ValueError(f"{uncertified} contains the identity" if cond > 1e6
                             else "the span must contain the identity")
        # the two-generator route can only accept; the pairwise check decides
        # the rest and owns the 1e-9 bound, and its message unless the frame
        # cannot certify
        if not _closed_by_two_generators(vh, self.n):
            try:
                _check_closure_by_pairs(vh, self.n)
            except ValueError:
                if cond <= 1e6:
                    raise
                raise ValueError(f"{uncertified} is closed under products") from None

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def coordinates(self, x) -> np.ndarray | None:
        """Coordinates of x on the basis, or None if x is outside the span.

        x is projected onto the orthonormal frame; the coordinates are read
        off the projection through the stored SVD. A real frame projects the
        real and imaginary parts of x, the two columns of a real N x 2 view,
        so it is never copied to complex.
        """
        target = np.asarray(x, dtype=complex).reshape(-1)
        vh = self._vh
        if np.iscomplexobj(vh):
            on_frame = (vh @ target.conj()).conj()
            resid = vh.T @ on_frame - target
        else:
            parts = target.view(float).reshape(-1, 2)
            pairs = vh @ parts
            on_frame = pairs.view(complex)[:, 0]
            resid = (vh.T @ pairs - parts).view(complex)[:, 0]
        if float(np.max(np.abs(resid))) >= 1e-9 * max(1.0, float(np.max(np.abs(target)))):
            return None
        return self._u.conj() @ (on_frame / self._s)


def _frame(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An SVD u diag(s) vh of the k x N stack, with orthonormal rows in vh.

    Two orthonormalisation passes on the k x k Gram matrix (CholeskyQR2:
    Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014, with eigh in place
    of Cholesky, so a singular Gram cannot raise) write flat = r q with
    orthonormal rows q; the SVD of the small factor r then gives u, s and
    vh = (right factor of r) q. A stack whose imaginary parts are all exactly
    zero spans a real space, and the Gram route then runs on its contiguous
    real part in float64, at about a quarter of the complex flops, and
    returns a real SVD. A Gram whose eigenvalue ratio is at or below 1e-12
    (condition 1e6 or more on the stack), or that overflows, cannot certify
    the 1e-9 rank verdict, and the stack itself, complex or not, goes to
    np.linalg.svd.
    """
    stack = np.ascontiguousarray(flat.real) if not flat.imag.any() else flat
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow only routes to the SVD
        gram = stack @ stack.conj().T
    if np.all(np.isfinite(gram)):
        lam, w = np.linalg.eigh(gram)
        if lam[0] > 1e-12 * lam[-1]:
            root = np.sqrt(lam)
            q = (w.conj().T / root[:, None]) @ stack  # stack = (w diag(root)) q
            lam2, w2 = np.linalg.eigh(q @ q.conj().T)
            root2 = np.sqrt(lam2)
            u, s, vr = np.linalg.svd((w * root) @ (w2 * root2))
            return u, s, (vr @ (w2.conj().T / root2[:, None])) @ q
    return np.linalg.svd(flat, full_matrices=False)


def _products_on_frame(products: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, float]:
    """Frame coordinates (row b) of a fresh stack of products f F_b with the
    frame's matrices, which it overwrites, and the Frobenius norm of what
    they leave off the frame vh over the stack's. The stack is not zero for
    f != 0: validation puts 1 in the span first, so f = f 1 is in its span."""
    prod = products.reshape(len(products), -1)
    size = np.linalg.norm(prod)
    # prod @ vh^H without a conjugated copy of vh
    coords = (np.conj(prod, out=prod) @ vh.T).conj()
    np.conj(prod, out=prod)
    prod -= coords @ vh
    return coords, float(np.linalg.norm(prod) / size)


def _check_closure_by_pairs(vh: np.ndarray, n: int) -> None:
    """Project the products F_a F_b of two of the frame's n x n matrices onto
    the frame vh, one left factor at a time, so only its k products are
    held, and refuse at the first factor whose relative residual is 1e-9 or
    more. The verdict depends on the span alone, not on its basis or scale."""
    frame = vh.reshape(-1, n, n)
    for err in (_products_on_frame(a @ frame, vh)[1] for a in frame):
        if err >= 1e-9:
            raise ValueError(f"basis is not closed under products (residual {err:.3e})")


def _closed_by_two_generators(vh: np.ndarray, n: int) -> bool:
    """True when the span S is shown closed from two elements of it.

    Two pseudo-random elements r1, r2 of S must map S into S. Their
    coordinates on the frame vh are Gaussian draws from the standard
    library's random.Random(0); the proof holds for any coordinates, and
    the standard library's generator keeps numpy.random out of a process
    that only validates. The products r_i F_b are projected as the pairwise
    check projects its products, their relative residual must stay under a
    thousandth of its 1e-9 bound, and their coordinates (row b is r_i F_b)
    are r_i's k x k action on the frame. The algebra r1 and r2 generate is
    grown from the identity, block by block: the newest orthonormal vectors
    are multiplied by each action and orthogonalised against those found
    so far. If it reaches dimension k, then 1 in S and r_i S in S give
    alg(r1, r2) = S, so S is closed. False leaves the question open: a
    larger residual, or a smaller algebra (two elements need not generate a
    non-semisimple one)."""
    k = len(vh)
    frame = vh.reshape(k, n, n)
    rng = random.Random(0)
    actions = []
    for _ in range(2):
        r = np.tensordot([rng.gauss(0.0, 1.0) for _ in range(k)], frame, axes=1)
        coords, resid = _products_on_frame(r @ frame, vh)
        if resid >= 1e-12:
            return False
        actions.append(coords)
    gap = 1e-8 * max(np.linalg.norm(a, 2) for a in actions)
    one = (vh @ np.eye(n, dtype=vh.dtype).reshape(-1)).conj()  # the identity is real
    found = newest = (one / np.linalg.norm(one))[None, :]
    while len(newest) and len(found) < k:
        grown = np.concatenate([newest @ a for a in actions])
        for _ in range(2):
            grown -= (grown @ found.conj().T) @ found
        _, sv, rows = np.linalg.svd(grown, full_matrices=False)
        newest = rows[sv > gap]
        found = np.concatenate([found, newest])
    return len(found) == k


def convolver_algebra(ctx: ConvolutionContext) -> AlgebraBasis:
    """The commutant of the right translations as a concrete basis.

    Computed from the exact orbit indicators of convolver_basis_exact (in
    lpconv.groups); each is a left translation, so the span coincides with
    the left translations and its dimension is the group order. The
    AlgebraBasis re-checks numerically what the group axioms prove.
    """
    mats = tuple(np.array(mat, dtype=complex) for mat in convolver_basis_exact(ctx.group))
    return AlgebraBasis(ctx.group.order, ctx.p, mats)


class PhasedPermutation(Frozen):
    """A generalized permutation matrix class: perm[y] is the supported row
    of column y and phases[y] the entry there, stored modulo a global
    unimodular scalar (canonical representatives have phases[0] = 1).
    phase_dim counts the free phase parameters of the class beyond the
    global scalar; 0 means an isolated class."""

    perm: tuple[int, ...]
    phases: tuple[complex, ...]
    phase_dim: int = 0

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.phases) != n:
            raise ValueError("perm must be a permutation with one phase per column")
        object.__setattr__(self, "phases", tuple(complex(z) for z in self.phases))


def _single_rows(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each column of cols (rows on axis -2), the row of its largest
    modulus, and whether that entry is the column's only one: modulus above
    ENUM_TOL, and the rest of the column of 2-norm at most ENUM_TOL."""
    mod = np.abs(cols)
    rows = np.argmax(mod, axis=-2)
    peak = np.take_along_axis(mod, rows[..., None, :], axis=-2)[..., 0, :]
    np.put_along_axis(mod, rows[..., None, :], 0.0, axis=-2)
    return rows, (peak > ENUM_TOL) & (np.linalg.norm(mod, axis=-2) <= ENUM_TOL)


class _PatternSearch:
    """Depth-first walk over support patterns, one column per level.

    A node is a slice c (orthonormal rows of coordinates on b0) of the
    span's matrices that vanish off the pattern chosen so far. Every node
    of dimension above one decides its children by one rule, from one SVD
    (descend); a one-dimensional node follows its single path (_follow_line).
    The state lives on the instance and the walk is a method, so a finished
    search leaves no reference cycle behind for the garbage collector.
    """

    def __init__(self, b0: np.ndarray, n: int):
        self.b0 = b0
        self.n = n
        self.pattern: list[int] = []
        self.found: list[PhasedPermutation] = []
        self.work = 0

    def _charge(self, units: int) -> None:
        self.work += units
        if self.work > ENUM_WORK_BUDGET:
            raise BudgetError("pattern search exceeded its work budget")

    def descend(self, c: np.ndarray) -> None:
        """Decide the children of slice c from one SVD of its block for the
        next column y.

        Let A = c b0[:, y::n] (d x n; entry (i, x) is matrix i of the slice
        at cell (x, y)) have rank r above ENUM_TOL. The matrices of the slice
        that vanish on column y off row x are spanned by the null rows
        U[:, r:]^H, which vanish on the whole column, and at most one line:
        row x of A's rank-r pseudo-inverse, normalised, kept exactly when
        its product with A passes _single_rows in row x. The node charges one
        unit of work before its SVD. Without null rows every child is a
        one-row slice, and they go to _follow_line as one block; otherwise
        each child [null rows; line] c descends. Past the last column a
        slice of dimension n is the whole phase torus (phase_dim = n - 1),
        and any other dimension raises NotGroupLike.
        """
        n, pattern = self.n, self.pattern
        d = c.shape[0]
        y = len(pattern)
        if y == n:
            if d != n:
                raise NotGroupLike(
                    f"a support pattern carries a {d}-parameter phase family "
                    "strictly between a scalar line and the full torus")
            self.found.append(PhasedPermutation(tuple(pattern), (1.0 + 0j,) * n, n - 1))
            return
        self._charge(1)
        acol = c @ self.b0[:, y::n]
        u, s, vh = np.linalg.svd(acol)
        r = int(np.sum(s > ENUM_TOL))
        pinv = (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T
        norm = np.linalg.norm(pinv, axis=1)
        # a zero row of pinv has no line
        free = [x for x in range(n) if x not in pattern and norm[x] > 0]
        lines = pinv[free] / norm[free, None]
        rows, ok = _single_rows((lines @ acol).T)
        keep = [i for i, x in enumerate(free) if ok[i] and rows[i] == x]
        if r == d:
            self._follow_line(lines[keep] @ c, [free[i] for i in keep])
            return
        null = u[:, r:].conj().T @ c
        for i in keep:
            pattern.append(free[i])
            self.descend(np.concatenate([null, lines[i:i + 1] @ c]))
            pattern.pop()

    def _follow_line(self, cs: np.ndarray, heads: list[int]) -> None:
        """Read the rest of the pattern, and the class, off each one-row
        slice of a block.

        Row i of cs is the one-row child of the current pattern through row
        heads[i], so its first y0 columns are fixed. A one-dimensional slice
        is a single matrix M up to scale, so its subtree is one path: column
        y continues it exactly when _single_rows passes M[:, y] in a free
        row, the one-row case of descend's rule. The block charges one unit
        of work per path. A complete pattern is a class when its entries
        share one modulus (relative spread at most ENUM_TOL), with its phases
        divided by the first. The whole block is multiplied by the frame
        once, and every pattern is read from that product.
        """
        self._charge(len(heads))
        n = self.n
        y0 = len(self.pattern) + 1
        mats = (cs @ self.b0).reshape(-1, n, n)
        rows, ok = _single_rows(mats[:, :, y0:])
        for mat, head, tail, fine in zip(mats, heads, rows.tolist(), ok.tolist()):
            pattern = self.pattern + [head]
            used = set(pattern)
            for x, passed in zip(tail, fine):
                if not passed or x in used:
                    break
                used.add(x)
                pattern.append(x)
            if len(pattern) < n:
                continue
            vec = mat[pattern, np.arange(n)]
            moduli = np.abs(vec)
            if moduli.min() > ENUM_TOL and (moduli.max() - moduli.min()) / moduli.max() <= ENUM_TOL:
                phases = vec / moduli
                self.found.append(PhasedPermutation(tuple(pattern), tuple(phases / phases[0]), 0))


def unitary_group_enumerate(basis: AlgebraBasis, p: float) -> tuple[PhasedPermutation, ...]:
    """All invertible-isometry classes inside the span, modulo global phase.

    Away from exponent 2 the invertible isometries of an unweighted atom
    space are exactly the generalized permutation matrices with unimodular
    entries, so the search walks support patterns column by column while
    restricting the span to matrices vanishing off the pattern. Every slice
    of dimension above one decides its children from one SVD of its
    coordinate block for the next column (for a group algebra only the
    root, which makes it the search's one factorisation). A pattern whose
    feasible slice is one-dimensional yields at most one class, and the
    slice's single matrix fixes the rest of the pattern, which is read off
    it in one pass, sibling slices in one block product with the frame; a
    slice of full dimension n yields the whole phase torus (reported with
    phase_dim = n - 1); an intermediate dimension would not produce a
    discrete class set and raises NotGroupLike. The search charges one unit
    of ENUM_WORK_BUDGET per SVD and one per one-row path, and raises
    BudgetError past it; more than TABLE_BUDGET atoms raise it up front.
    """
    if p == 2.0:
        raise P2Unsupported(
            "at p = 2 the isometry group is strictly larger than the "
            "generalized permutations; enumeration refuses")
    if not (1.0 < p < math.inf):
        raise POutOfRange("enumeration needs p strictly between 1 and infinity")
    n = basis.n
    if n > TABLE_BUDGET:
        raise BudgetError(f"pattern search capped at {TABLE_BUDGET} atoms")

    # the frame is whole: validation refused a basis whose stack has a
    # singular value at or below 1e-9 of the largest
    search = _PatternSearch(basis._vh, n)
    search.descend(np.eye(basis.dimension, dtype=basis._vh.dtype))
    identity = tuple(range(n))
    return tuple(sorted(search.found, key=lambda u: (u.perm != identity, u.perm)))
