"""Translation operators of a finite group and the algebras they generate.

With counting measure as the invariant measure, left and right translation
act as 0/1 permutation matrices, the span of the left translations is an
algebra of dimension |G|, and the commutant of the right translations (the
exact 0/1 indicators of the orbits of G acting diagonally on the right of
G x G) recovers the same span. Away from exponent 2 the invertible
isometries inside such a span are generalized permutation matrices with
unimodular entries, enumerated here by a support pattern search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, NotGroupLike, P2Unsupported, POutOfRange
from .groups import FiniteGroup, generating_sequence
from .isometry import LpContext, Operator
from .measure import FiniteMeasureAlgebra

ENUM_NODE_BUDGET = 200_000
ENUM_ATOM_BUDGET = 64
ENUM_TOL = 1e-9


@dataclass(frozen=True)
class ConvolutionContext:
    """A finite group acting on itself, with counting measure and an exponent."""

    group: FiniteGroup
    p: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise POutOfRange("convolution contexts need p strictly between 1 and infinity")

    @property
    def weights(self) -> tuple[float, ...]:
        return (1.0,) * self.group.order

    def lp_context(self) -> LpContext:
        return LpContext(FiniteMeasureAlgebra(self.weights), self.p)


def left_regular(ctx: ConvolutionContext, s: int) -> Operator:
    """Left translation: (L_s xi)(x) = xi(s^-1 x), a permutation matrix."""
    g = ctx.group
    n = g.order
    if not 0 <= s < n:
        raise ValueError("element index out of range")
    m = np.zeros((n, n), dtype=complex)
    for y in range(n):
        m[g.mul(s, y), y] = 1.0
    return Operator(ctx.lp_context(), m)


def right_regular(ctx: ConvolutionContext, s: int) -> Operator:
    """Right translation: (R_s xi)(x) = xi(x s), a permutation matrix."""
    g = ctx.group
    n = g.order
    if not 0 <= s < n:
        raise ValueError("element index out of range")
    m = np.zeros((n, n), dtype=complex)
    for x in range(n):
        m[x, g.mul(x, s)] = 1.0
    return Operator(ctx.lp_context(), m)


@dataclass(frozen=True)
class AlgebraBasis:
    """Linearly independent matrices whose span is unital and closed under products.

    Validation keeps the SVD u diag(s) vh of the stacked, flattened matrices:
    the rows of vh are an orthonormal frame of the span, which membership
    tests and the isometry search read instead of factoring the stack again.
    """

    n: int
    p: float
    elements: tuple[np.ndarray, ...]
    _u: np.ndarray = field(init=False, repr=False, compare=False)
    _s: np.ndarray = field(init=False, repr=False, compare=False)
    _vh: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("basis must be nonempty")
        mats = [np.asarray(m) for m in self.elements]
        for a in mats:
            if a.shape != (self.n, self.n):
                raise ValueError(f"basis matrices must be {self.n} x {self.n}")
        k = len(mats)
        stacked = np.array(mats, dtype=complex)
        stacked.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stacked))
        u, s, vh = np.linalg.svd(stacked.reshape(k, -1), full_matrices=False)
        if len(s) < k or s[-1] <= 1e-9 * s[0]:
            raise ValueError("basis matrices are linearly dependent")
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_vh", vh)
        if self.coordinates(np.eye(self.n)) is None:
            raise ValueError("the span must contain the identity")
        # the two-generator route can only accept; the pairwise check decides
        # the rest and owns the 1e-9 bound and every rejection message
        if not _closed_by_two_generators(stacked, u, s, vh):
            _check_closure_by_pairs(stacked, vh)

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def coordinates(self, x, tol: float = 1e-9) -> np.ndarray | None:
        """Coordinates of x on the basis, or None if x is outside the span.

        x is projected onto the orthonormal frame; the coordinates are read
        off the projection through the stored SVD.
        """
        target = np.asarray(x, dtype=complex).reshape(-1)
        on_frame = (self._vh @ target.conj()).conj()
        resid = float(np.max(np.abs(self._vh.T @ on_frame - target)))
        if resid >= tol * max(1.0, float(np.max(np.abs(target)))):
            return None
        return self._u.conj() @ (on_frame / self._s)


def _check_closure_by_pairs(stacked: np.ndarray, vh: np.ndarray) -> None:
    """Project every product of two basis matrices onto the frame vh.

    One left factor at a time, so only k products are held at once.
    """
    k = len(stacked)
    vh_adj = vh.conj().T
    resids = []
    for a in stacked:
        prod = (a @ stacked).reshape(k, -1)
        resids.append(np.max(np.abs(prod - (prod @ vh_adj) @ vh)))
    # np.max keeps a NaN (products that overflowed), where max() would drop it
    err = float(np.max(resids))
    if not err < 1e-9:
        raise ValueError(f"basis is not closed under products (residual {err:.3e})")


def _closed_by_two_generators(stacked: np.ndarray, u: np.ndarray, s: np.ndarray,
                              vh: np.ndarray) -> bool:
    """True when the span S is shown closed from two elements of it.

    Two seeded random elements r1, r2 of S, with coefficients of modulus
    at most one on the basis, must map S into S. That takes 2k products
    r_i F_m with the frame matrices F_m (the rows of vh), and the residuals
    they leave off the frame, turned into an upper bound on those of the
    products r_i B_b with the basis (the pairwise check's units), must stay
    under a thousandth of its 1e-9 bound. The algebra r1 and r2 generate is
    then grown from the identity, block by block: the newest orthonormal
    vectors are multiplied by each r_i (as k x k actions on frame
    coordinates) and orthogonalised against those found so far. If it
    reaches dimension k, then 1 in S and r_i S in S give alg(r1, r2) = S,
    so S is closed. False leaves the question open: a larger residual, or
    a smaller algebra (two elements need not generate a non-semisimple one).
    """
    k, n, _ = stacked.shape
    frame = vh.reshape(k, n, n)
    coef = np.random.default_rng(0).standard_normal((2, k))
    coef /= np.max(np.abs(coef), axis=1, keepdims=True)
    actions = []
    # B_b = sum_m (u s)[b, m] F_m, so a residual of r_i F_m times the largest
    # row sum of |u s| bounds the residuals of r_i B_b from above
    weight = float(np.max(np.abs(u) @ s))
    for c in coef:
        prod = (np.tensordot(c, stacked, axes=1) @ frame).reshape(k, -1)
        # row m of the action: r_i F_m on the frame, prod @ vh^H without a conjugated copy
        action = (np.conj(prod, out=prod) @ vh.T).conj()
        np.conj(prod, out=prod)
        prod -= action @ vh
        if not weight * float(np.max(np.abs(prod))) < 1e-12:  # NaN accepts nothing
            return False
        actions.append(action)
    gap = 1e-8 * max(np.linalg.norm(a, 2) for a in actions)
    one = (vh @ np.eye(n, dtype=complex).reshape(-1)).conj()  # the identity is real
    found = newest = (one / np.linalg.norm(one))[None, :]
    while len(newest) and len(found) < k:
        grown = np.concatenate([newest @ a for a in actions])
        for _ in range(2):
            grown -= (grown @ found.conj().T) @ found
        _, sv, rows = np.linalg.svd(grown, full_matrices=False)
        newest = rows[sv > gap]
        found = np.concatenate([found, newest])
    return len(found) == k


def algebra_membership(basis: AlgebraBasis, x, tol: float = 1e-9) -> np.ndarray | None:
    """Coordinates of a matrix (or Operator) in the span, or None."""
    if isinstance(x, Operator):
        x = x.matrix
    return basis.coordinates(x, tol=tol)


def pseudofunction_algebra(ctx: ConvolutionContext) -> AlgebraBasis:
    """The span of the left translations; dimension equals the group order."""
    mats = tuple(left_regular(ctx, s).matrix for s in range(ctx.group.order))
    return AlgebraBasis(ctx.group.order, ctx.p, mats)


def convolver_basis_exact(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Exact 0/1 basis of the commutant of the right translations.

    Each constraint X[x, y t^-1] = X[x t, y] of X R_t = R_t X, over a
    generating set, equates two cells, so the commutant is spanned by the
    indicator matrices of the orbits of the diagonal right action on
    G x G. The orbits come from a union-find over the n^2 cells, with no
    arithmetic, and are ordered by their largest cell index x*n + y (the
    free column of the constraint system's reduced row echelon form).
    Returned as row-major nested tuples of 0/1 integers.
    """
    n = group.order
    gens = generating_sequence(group) or [group.identity]
    parent = list(range(n * n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t in gens:
        t_inv = group.inv(t)
        for x in range(n):
            xt = group.mul(x, t)
            for y in range(n):
                a = find(x * n + group.mul(y, t_inv))
                b = find(xt * n + y)
                if a != b:
                    # the root of an orbit stays its largest cell
                    parent[min(a, b)] = max(a, b)
    orbits: dict[int, list[int]] = {}
    for c in range(n * n):
        orbits.setdefault(find(c), []).append(c)
    basis = []
    for root in sorted(orbits):
        flat = [0] * (n * n)
        for c in orbits[root]:
            flat[c] = 1
        basis.append(tuple(tuple(flat[x * n:(x + 1) * n]) for x in range(n)))
    return tuple(basis)


def convolver_algebra(ctx: ConvolutionContext) -> AlgebraBasis:
    """The commutant of the right translations as a concrete basis.

    Computed from the exact orbit partition of convolver_basis_exact; each
    orbit indicator is a left translation, so the dimension is the group
    order and the span coincides with the left translations.
    """
    exact = convolver_basis_exact(ctx.group)
    n = ctx.group.order
    if len(exact) != n:
        raise AssertionError(f"commutant dimension {len(exact)} != group order {n}")
    mats = tuple(np.array(mat, dtype=complex) for mat in exact)
    return AlgebraBasis(n, ctx.p, mats)


@dataclass(frozen=True)
class PhasedPermutation:
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

    def compose(self, other: PhasedPermutation) -> PhasedPermutation:
        """Matrix product self @ other, as a class representative."""
        perm = tuple(self.perm[y] for y in other.perm)
        phases = tuple(self.phases[other.perm[y]] * other.phases[y]
                       for y in range(len(self.perm)))
        return PhasedPermutation(perm, phases,
                                 max(self.phase_dim, other.phase_dim))

    def inverse(self) -> PhasedPermutation:
        n = len(self.perm)
        inv = [0] * n
        for y, x in enumerate(self.perm):
            inv[x] = y
        phases = tuple(1.0 / self.phases[inv[y]] for y in range(n))
        return PhasedPermutation(tuple(inv), phases, self.phase_dim)

    def same_class(self, other: PhasedPermutation, tol: float = ENUM_TOL) -> bool:
        """Equal permutation parts and phases matching up to a global scalar."""
        if self.perm != other.perm:
            return False
        ratios = [a / b for a, b in zip(self.phases, other.phases)]
        return max(abs(r - ratios[0]) for r in ratios) <= tol

    def as_matrix(self) -> np.ndarray:
        n = len(self.perm)
        m = np.zeros((n, n), dtype=complex)
        for y in range(n):
            m[self.perm[y], y] = self.phases[y]
        return m


def _left_nullspace(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows c with c @ a = 0."""
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tol))
    return u[:, rank:].conj().T


class _PatternSearch:
    """Depth-first walk over support patterns, one column per level.

    A node is a slice c (orthonormal rows of coordinates on b0) of the
    span's matrices that vanish off the pattern chosen so far. The state
    lives on the instance and the walk is a method, so a finished search
    leaves no reference cycle behind for the garbage collector.
    """

    def __init__(self, b0: np.ndarray, n: int, node_budget: int, tol: float):
        self.b0 = b0
        self.n = n
        self.node_budget = node_budget
        self.tol = tol
        self.used = [False] * n
        self.pattern: list[int] = []
        self.found: list[PhasedPermutation] = []
        self.nodes = 0

    def _count(self, k: int) -> None:
        self.nodes += k
        if self.nodes > self.node_budget:
            raise BudgetError("pattern search exceeded its node budget")

    def descend(self, c: np.ndarray) -> None:
        n, tol, used, pattern = self.n, self.tol, self.used, self.pattern
        y = len(pattern)
        if y == n:
            self._finalize(c, pattern)
            return
        if c.shape[0] == 1:
            self._follow_line(c)
            return
        acol = c @ self.b0[:, y::n]  # coordinates of column y (cells x*n + y) on the slice
        for x in range(n):
            if used[x]:
                continue
            self._count(1)
            others = np.delete(acol, x, axis=1)
            nmat = _left_nullspace(others, tol)
            if nmat.shape[0] == 0:
                continue
            if np.max(np.abs(nmat @ acol[:, x])) <= tol:
                continue
            used[x] = True
            pattern.append(x)
            self.descend(nmat @ c)
            used[x] = False
            pattern.pop()

    def _follow_line(self, c: np.ndarray) -> None:
        """Read the rest of the pattern off a one-row slice in one pass.

        A one-dimensional slice is a single matrix M up to scale, so its
        subtree is one path: column y continues it exactly when the largest
        entry of M[:, y] sits in a free row with modulus above tol and the
        rest of the column has 2-norm at most tol (the rank-0 test a
        per-candidate nullspace would make). Each level visited counts its
        n - y free rows as nodes, up to and including the first failing one.
        """
        n, tol = self.n, self.tol
        y0 = len(self.pattern)
        mod = np.abs((c[0] @ self.b0).reshape(n, n)[:, y0:])
        levels = np.arange(n - y0)
        rows = np.argmax(mod, axis=0)
        peak = mod[rows, levels]
        mod[rows, levels] = 0.0
        ok = ((peak > tol) & (np.linalg.norm(mod, axis=0) <= tol)).tolist()
        used = list(self.used)
        pattern = list(self.pattern)
        for j, x in enumerate(rows.tolist()):
            self._count(n - y0 - j)
            if not ok[j] or used[x]:
                return
            used[x] = True
            pattern.append(x)
        self._finalize(c, pattern)

    def _finalize(self, c: np.ndarray, pattern: list[int]) -> None:
        n, tol = self.n, self.tol
        d = c.shape[0]
        coords = np.stack([c @ self.b0[:, pattern[y] * n + y] for y in range(n)], axis=1)
        if d == 1:
            vec = coords[0]
            moduli = np.abs(vec)
            if moduli.min() <= tol:
                return
            if (moduli.max() - moduli.min()) / moduli.max() > tol:
                return
            phases = vec / moduli
            phases = phases / phases[0]
            self.found.append(PhasedPermutation(tuple(pattern), tuple(phases), 0))
        elif d == n:
            self.found.append(PhasedPermutation(tuple(pattern), (1.0 + 0j,) * n, n - 1))
        else:
            raise NotGroupLike(
                f"a support pattern carries a {d}-parameter phase family "
                "strictly between a scalar line and the full torus")


def unitary_group_enumerate(basis: AlgebraBasis, p: float, *,
                            node_budget: int = ENUM_NODE_BUDGET
                            ) -> tuple[PhasedPermutation, ...]:
    """All invertible-isometry classes inside the span, modulo global phase.

    Away from exponent 2 the invertible isometries of an unweighted atom
    space are exactly the generalized permutation matrices with unimodular
    entries, so the search walks support patterns column by column while
    restricting the span to matrices vanishing off the pattern. A pattern
    whose feasible slice is one-dimensional yields at most one class, and
    the slice's single matrix fixes the rest of the pattern, which is read
    off it in one pass; a slice of full dimension n yields the whole phase
    torus (reported with phase_dim = n - 1); an intermediate dimension
    would not produce a discrete class set and raises NotGroupLike.
    """
    if p == 2.0:
        raise P2Unsupported(
            "at p = 2 the isometry group is strictly larger than the "
            "generalized permutations; enumeration refuses")
    if not (1.0 < p < math.inf):
        raise POutOfRange("enumeration needs p strictly between 1 and infinity")
    n = basis.n
    if n > ENUM_ATOM_BUDGET:
        raise BudgetError(f"pattern search capped at {ENUM_ATOM_BUDGET} atoms")

    # the frame is whole: validation refused a basis whose stack has a
    # singular value at or below 1e-9 of the largest
    search = _PatternSearch(basis._vh, n, node_budget, ENUM_TOL)
    search.descend(np.eye(basis.dimension, dtype=complex))
    identity = tuple(range(n))
    return tuple(sorted(search.found, key=lambda u: (u.perm != identity, u.perm)))
