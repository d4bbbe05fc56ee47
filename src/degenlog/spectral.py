"""Dirichlet eigenvalues on masked subdomains and the characteristic value.

The principal eigenpair and the second eigenvalue of the discrete negative
Laplacian come from one path: shift-invert Lanczos about zero (ARPACK's
eigsh) from a fixed start vector, each inverse applied through one
symmetric-mode LU on a minimum-degree ordering of the mask's packed
Dirichlet matrix (`grid.dirichlet_matrix`, on the mask's values in C order).
The principal solve keeps a Lanczos basis of 10 vectors (ncv), which about
halves its inverse applications against ARPACK's default of 20; the second
eigenvalue keeps 20, because from the constant start vector a smaller basis
can converge to a higher mode.  Both pairs are held to a residual bound, and
the principal eigenvector must be one-signed.  Masks are split into
face-connected components on the matrix's own sparsity pattern, which is
the lattice's face adjacency.  Eigenfunctions are returned as lattice arrays.
The characteristic value of a compact set K is the limit of the principal
eigenvalue of shrinking neighborhoods {d(x, K) <= delta}; it is estimated on
a geometric delta schedule with first-order Richardson extrapolation, and
reported as infinite when the values blow past LAMBDA0_CAP (thin sets
such as points in 2-d).

Within one scenarios.predict() call each distinct principal eigenproblem
is solved once: the call keeps each principal eigenvalue and packed
eigenvector, keyed by a digest of the component's packed matrix, so an equal
problem reached through another shape, start time or criterion is not solved
again.  The memo lives in a context variable that predict() sets to a fresh
dict and resets when it returns; elsewhere nothing is kept.  No LU factor
outlives the solve that made it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from scipy.special import jn_zeros

from .geometry import DomainSpec, SetShape
from .grid import Grid, dirichlet_matrix

__all__ = [
    "EigenPair",
    "Lambda0Estimate",
    "principal_eigenvalue",
    "principal_eigenpair",
    "second_eigenvalue",
    "lambda0_deltas",
    "LAMBDA0_CAP",
    "lambda0_of_set",
    "analytic_lambda1",
    "bessel_j0_first_root",
]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its L2-normalized, positive principal eigenfunction
    as a lattice array, zero off the mask."""

    value: float
    vector: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class Lambda0Estimate:
    """Principal eigenvalues of shrinking neighborhoods of a compact set."""

    deltas: tuple          # strictly decreasing
    values: tuple          # lambda_1 of each neighborhood
    verdict: str           # "finite" | "infinite"
    value: float           # limit from the two tightest rungs, or math.inf

    @property
    def is_finite(self) -> bool:
        return self.verdict == "finite"


class EigenFailure(RuntimeError):
    """An eigen solve did not converge or failed its residual check."""


def _components(grid: Grid, mask: np.ndarray) -> list:
    """The packed Dirichlet matrices of the face-connected components of a
    nonempty mask, in the order of their first node.

    The off-diagonal pattern of the mask's matrix is the face adjacency of
    its nodes, so its graph components are the mask's face-connected
    components, whose matrices are its principal submatrices on them.
    """
    a = dirichlet_matrix(grid, mask)
    if a.shape[0] == 0:
        raise ValueError("eigenproblem needs a nonempty mask")
    # the pattern is symmetric, so strong components are the weak ones;
    # scipy finds them faster
    n_comp, labels = connected_components(a, directed=True,
                                          connection="strong")
    if n_comp == 1:
        return [a]
    return [a[idx][:, idx]
            for idx in (np.flatnonzero(labels == c) for c in range(n_comp))]


def _smallest_eigenpairs(a: sp.csr_matrix, k: int, tol: float):
    """The k smallest eigenpairs of a packed Dirichlet matrix: ascending
    values, and the unit eigenvectors as columns."""
    n = a.shape[0]
    if n < 2:
        # eigsh needs k < n; a one-node mask is its own 1x1 eigenproblem
        return np.array([float(a[0, 0])]), np.ones((1, 1))
    # fixed start vector keeps repeated calls bit-identical (the default is
    # drawn from the global RNG, which would break report determinism)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    # 10 Lanczos vectors for k = 1, ARPACK's 20 for k = 2 (module docstring)
    ncv = min(10, n) if k == 1 else None
    # the matrix is a symmetric M-matrix: its LU needs no pivoting, and a
    # minimum-degree ordering on A + A^T fills far less than eigsh's default
    # COLAMD factor; a.T is the CSC matrix on a's own arrays, which for a
    # symmetric a is a itself, without tocsc()'s copy
    lu = spla.splu(a.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    inverse = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(a, k=k, sigma=0.0, which="LM", tol=tol,
                                v0=v0, ncv=ncv, OPinv=inverse)
    except spla.ArpackNoConvergence as e:
        raise EigenFailure(f"shift-invert Lanczos did not converge: {e}") \
            from e
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _check_residual(a: sp.csr_matrix, lam: float, vec: np.ndarray,
                    bound: float, which: str) -> None:
    """Raise EigenFailure unless ||a vec - lam vec|| <= bound max(1, |lam|)."""
    residual = float(np.linalg.norm(a @ vec - lam * vec))
    if not residual <= bound * max(1.0, abs(lam)):
        raise EigenFailure(f"{which} eigenvalue {lam!r} fails its residual "
                           f"check (residual {residual:.3e})")


#: the principal pairs solved in the current predict() call, by
#: _problem_key; None, so nothing is kept, outside one
_SOLVED = contextvars.ContextVar("degenlog_principal_pairs", default=None)


@contextlib.contextmanager
def _one_solve_per_problem():
    """Within the block, _principal solves each distinct eigenproblem once."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _problem_key(a: sp.csr_matrix, tol: float) -> tuple:
    """The tolerance, size and sha256 digest of a's arrays: equal keys mean
    equal arrays (n and nnz fix where one array ends and the next begins)."""
    h = hashlib.sha256(a.indptr)
    h.update(a.indices)
    h.update(a.data)
    return tol, a.shape[0], a.nnz, h.digest()


def _principal(a: sp.csr_matrix, tol: float) -> tuple:
    """Smallest eigenvalue of a connected mask's packed Dirichlet matrix
    and its eigenvector, packed, positive and read-only; solved once per
    distinct problem inside _one_solve_per_problem."""
    solved = _SOLVED.get()
    if solved is None:
        return _solve_principal(a, tol)
    key = _problem_key(a, tol)
    if key not in solved:
        solved[key] = _solve_principal(a, tol)
    return solved[key]


def _solve_principal(a: sp.csr_matrix, tol: float) -> tuple:
    vals, vecs = _smallest_eigenpairs(a, 1, tol)
    lam, vec = float(vals[0]), vecs[:, 0]
    _check_residual(a, lam, vec, tol, "principal")
    if vec.sum() < 0:
        vec = -vec
    if np.any(vec <= 0):
        # the principal mode of an irreducible M-matrix is strictly one-signed;
        # clip roundoff-level negatives only
        if np.min(vec) < -1e-8 * np.max(vec):
            raise EigenFailure("principal eigenvector is not one-signed")
        vec = np.maximum(vec, np.finfo(float).tiny)
    vec.flags.writeable = False
    return lam, vec


def principal_eigenpair(grid: Grid, mask: np.ndarray,
                        tol: float = 1e-10) -> EigenPair:
    """Smallest Dirichlet eigenvalue and positive normalized eigenfunction
    of a nonempty, face-connected mask (ValueError otherwise)."""
    a, *rest = _components(grid, mask)
    if rest:
        raise ValueError("eigenproblem needs a connected mask")
    lam, vec = _principal(a, tol)
    vec = vec / math.sqrt(float(vec @ vec) * grid.cell_volume)
    out = np.zeros(grid.shape)
    out[mask & grid.mask] = vec
    return EigenPair(value=lam, vector=out, mask=mask)


def principal_eigenvalue(grid: Grid, mask: np.ndarray) -> float:
    """Smallest Dirichlet eigenvalue of a mask.

    Unlike principal_eigenpair this accepts disconnected masks, returning the
    minimum over connected components (the smallest eigenvalue of the direct
    sum).
    """
    return min(_principal(a, 1e-10)[0] for a in _components(grid, mask))


def second_eigenvalue(grid: Grid, mask: np.ndarray) -> float:
    """Second Dirichlet eigenvalue of a connected mask.

    Lanczos copes with the near-degenerate second modes of discretized
    symmetric shapes, which stall plain power-type iterations.  The solve
    runs at tolerance 1e-10 and the pair is held to the residual bound
    sqrt(1e-10) max(1, |lambda|): the eigenvalue error is quadratic in the
    residual, and near-degenerate second modes converge less tightly than
    the principal one.
    """
    a, *rest = _components(grid, mask)
    if rest:
        raise ValueError("eigenproblem needs a connected mask")
    if a.shape[0] < 3:
        raise ValueError("second eigenvalue needs a mask of at least 3 nodes")
    vals, vecs = _smallest_eigenpairs(a, 2, 1e-10)
    lam = float(vals[1])
    _check_residual(a, lam, vecs[:, 1], math.sqrt(1e-10), "second")
    return lam


def lambda0_deltas(grid: Grid) -> tuple:
    """Default neighborhood ladder of lambda0_of_set on a grid: the
    geometric schedule delta0 = max(8h, 0.1), delta0/2, ..., stopping at
    2h."""
    deltas = []
    d = max(8.0 * grid.h, 0.1)
    while d >= 2.0 * grid.h:
        deltas.append(d)
        d *= 0.5
    return tuple(deltas)


#: the characteristic value above which lambda0_of_set calls it infinite
LAMBDA0_CAP = 1e4


def lambda0_of_set(grid: Grid, k: SetShape, deltas=None) -> Lambda0Estimate:
    """Characteristic value of a compact set via shrinking neighborhoods.

    Computes lambda_1 of {x in the domain : d(x, k) <= delta} for each delta,
    thresholding one distance field d(., k) over the lattice; verdict
    "infinite" if k is a point (a ball of radius 0, whose neighborhoods'
    eigenvalues grow like 1/delta^2 at every resolution) or the tightest
    neighborhood exceeds LAMBDA0_CAP, otherwise linear extrapolation of the
    reciprocal square root of the eigenvalue (the length scale) from the two
    tightest neighborhoods to delta = 0, infinite again above LAMBDA0_CAP.
    """
    if k.is_empty:
        raise ValueError("characteristic value of the empty set is undefined")
    if deltas is None:
        deltas = lambda0_deltas(grid)
    deltas = tuple(float(d) for d in deltas)
    if not (deltas and all(0 < d < math.inf for d in deltas)):
        raise ValueError(f"deltas must be nonempty, finite and positive, "
                         f"got {deltas}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if deltas[-1] < 2.0 * grid.h:
        raise ValueError("smallest delta is below grid resolution (2h)")
    dist = k.distance(grid.points()).reshape(grid.shape)
    values = [principal_eigenvalue(grid, (dist <= d) & grid.mask)
              for d in deltas]
    if values[-1] > LAMBDA0_CAP or (k.kind == "ball" and k.radius == 0.0):
        return Lambda0Estimate(deltas, tuple(values), "infinite", math.inf)
    if len(values) >= 2:
        # The eigenvalue scales like an inverse squared length, and the
        # neighborhood inflates lengths linearly in delta, so the reciprocal
        # square root of the eigenvalue is the quantity that is (to first
        # order) linear in delta; extrapolate that to delta = 0.
        d0, d1 = deltas[-2], deltas[-1]
        s0, s1 = values[-2] ** -0.5, values[-1] ** -0.5
        s_limit = s1 + (s1 - s0) * d1 / (d0 - d1)
        extrapolated = s_limit ** -2.0 if s_limit > 0.0 else math.inf
    else:
        extrapolated = values[-1]
    if extrapolated > LAMBDA0_CAP:
        return Lambda0Estimate(deltas, tuple(values), "infinite", math.inf)
    return Lambda0Estimate(deltas, tuple(values), "finite", float(extrapolated))


def bessel_j0_first_root() -> float:
    """First positive zero of J0."""
    return float(jn_zeros(0, 1)[0])


def analytic_lambda1(shape) -> float:
    """Closed-form principal Dirichlet eigenvalue for simple shapes.

    Rectangles: pi^2 sum(1/side^2).  Intervals: pi^2 / L^2.  Discs/balls in
    2-d: (first J0 root)^2 / r^2.  1-d balls are intervals of length 2r.
    """
    if isinstance(shape, DomainSpec):
        if shape.kind == "rectangle":
            sides = [b - a for a, b in zip(shape.lo, shape.hi)]
            return math.pi ** 2 * sum(1.0 / s ** 2 for s in sides)
        return bessel_j0_first_root() ** 2 / shape.radius ** 2
    if isinstance(shape, SetShape) and shape.kind == "ball" and shape.radius > 0:
        if shape.dim == 2:
            return bessel_j0_first_root() ** 2 / shape.radius ** 2
        return math.pi ** 2 / (4.0 * shape.radius ** 2)
    raise ValueError(f"no closed-form eigenvalue for {shape!r}")
