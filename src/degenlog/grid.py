"""Uniform Cartesian lattice, interior masks and the Dirichlet Laplacian.

Nodes live on a uniform lattice over the domain's bounding box; a node belongs
to the computational mask iff its center lies in the open domain.  A grid
function is a plain array of shape `Grid.shape` that is zero off the mask,
which realizes the homogeneous Dirichlet condition in the 3/5-point stencil.
`Grid.laplacian` is that stencil on every lattice node, built once per grid;
a MaskedOperator is its principal submatrix on a mask's nodes, which packs
grid functions to the mask and extends them back, and solves the shifted
systems K = I + dt A + diag(c) of a time step by Jacobi-preconditioned
conjugate gradients on K assembled in place: scipy's loop written out bit
for bit, one sparse product per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .geometry import DomainSpec, SetShape

__all__ = [
    "Grid",
    "SolveFailure",
    "build_grid",
    "mask_from_shape",
    "MaskedOperator",
    "write_pgm",
]


class SolveFailure(RuntimeError):
    """Iterative solve did not reach the requested residual."""


@dataclass(frozen=True)
class Grid:
    """Node lattice over a domain with the interior mask."""

    domain: DomainSpec
    h: float
    origin: tuple          # lattice corner (node i has coords origin + (i+1) h)
    shape: tuple           # node counts per axis
    mask: np.ndarray       # boolean, True on interior nodes

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return self.origin[axis] + self.h * (1.0 + np.arange(n))

    def points(self) -> np.ndarray:
        """All lattice node coordinates, shape (prod(shape), dim), C order."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Negative 3/5-point Laplacian on every lattice node (C order) with
        zero Dirichlet data beyond the lattice, as a Kronecker sum of the
        1-d second differences."""
        # kronsum(A, B) puts B on the slower index, so the axes fold in from
        # the last (fastest in C order) to the first
        d2 = [sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
              for n in reversed(self.shape)]
        return (reduce(sp.kronsum, d2) / self.h ** 2).tocsr()


def build_grid(domain: DomainSpec, n: int) -> Grid:
    """Lattice with n cells on the first axis and the remaining axes sized
    to keep the spacing uniform; nodes are cell corners strictly inside.
    """
    lo, hi = domain.bounding_box()
    extent = hi - lo
    n = int(n)
    h = extent[0] / n
    cells = [n] + [int(round(extent[a] / h)) for a in range(1, len(extent))]
    if any(c < 8 for c in cells):
        raise ValueError("need at least 8 cells per axis")
    for a, c in enumerate(cells):
        if abs(c * h - extent[a]) > 1e-9 * max(extent):
            raise ValueError("cell counts must give one uniform spacing h")
    shape = tuple(c - 1 for c in cells)
    grid = Grid(domain=domain, h=float(h), origin=tuple(lo), shape=shape,
                mask=np.empty(0, dtype=bool))
    pts = grid.points()
    mask = domain.contains(pts).reshape(shape)
    if not mask.any():
        raise ValueError("degenerate domain: no interior nodes")
    object.__setattr__(grid, "mask", mask)
    return grid


def mask_from_shape(grid: Grid, s: SetShape) -> np.ndarray:
    """Interior nodes lying in the set (distance zero)."""
    if s.is_empty:
        return np.zeros(grid.shape, dtype=bool)
    d = s.distance(grid.points()).reshape(grid.shape)
    return (d <= 0.0) & grid.mask


def mask_within_distance(grid: Grid, s: SetShape, delta: float) -> np.ndarray:
    """Interior nodes within distance delta of the set (exact dilation)."""
    if s.is_empty:
        return np.zeros(grid.shape, dtype=bool)
    d = s.distance(grid.points()).reshape(grid.shape)
    return (d <= delta) & grid.mask


class MaskedOperator:
    """Negative Laplacian restricted to a mask, with SPD solves.

    The matrix is the principal submatrix of `Grid.laplacian` on the mask's
    nodes, which is the Dirichlet Laplacian of the mask; solves
    (I + dt A + diag(c)) u = rhs by conjugate gradients with the Jacobi
    (diagonal) preconditioner.  Solves are deterministic and
    single-threaded; each overwrites the operator's storage for K, so an
    operator serves one solve at a time.  `iterations` is the running total
    of CG iterations over the operator's solves.  Packed vectors list the
    mask's nodes in C order, as `points` does.
    """

    def __init__(self, grid: Grid, mask: np.ndarray | None = None):
        self.grid = grid
        self.mask = grid.mask if mask is None else (mask & grid.mask)
        if not self.mask.any():
            raise ValueError("empty mask")
        idx = np.flatnonzero(self.mask)
        self.n = len(idx)
        self.matrix = grid.laplacian[idx][:, idx]
        self.iterations = 0

    @cached_property
    def points(self) -> np.ndarray:
        """Coordinates of the mask's nodes, shape (n, dim), read-only."""
        pts = self.grid.points()[self.mask.ravel()]
        pts.flags.writeable = False
        return pts

    def extend(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        out[self.mask] = vec
        return out

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Diagonal of `matrix`, read by every solve's preconditioner."""
        return self.matrix.diagonal()

    @cached_property
    def _system(self) -> tuple:
        """Storage for K = I + dt A + diag(c): a copy of `matrix` whose data
        every solve overwrites, and the positions of its diagonal in
        K.data.  Built on the first solve, so operators that never solve
        never pay for it."""
        K = self.matrix.copy()
        rows = np.repeat(np.arange(self.n), np.diff(K.indptr))
        return K, np.flatnonzero(K.indices == rows)

    def solve_spd(self, rhs: np.ndarray, dt: float, c: np.ndarray,
                  tol: float = 1e-10,
                  x0: np.ndarray | None = None) -> np.ndarray:
        """Solve K u = rhs, K = I + dt A + diag(c), to relative residual
        <= tol.

        K is assembled in place: dt A.data, then the diagonal
        1 + dt diag(A) + c, which is also the Jacobi preconditioner.  The
        loop is scipy's `cg` (1.17) with that preconditioner written out,
        one product with K per iteration: every floating-point operation in
        the same order, so the bits match `cg(K, rhs, x0, rtol=tol, atol=0,
        maxiter=max(4n, 200), M=...)` on the same K, with preallocated
        buffers.  Raises SolveFailure unless the final residual is within
        4 tol ||rhs||, NaN included.
        """
        if np.any(c < 0):
            raise ValueError("reaction coefficient c must be nonnegative")
        b = np.asarray(rhs, dtype=float)
        b_norm = math.sqrt(b.dot(b))
        if b_norm == 0:
            return b.copy()
        K, diag_at = self._system
        np.multiply(self.matrix.data, dt, out=K.data)
        diag = 1.0 + dt * self.diagonal + c
        K.data[diag_at] = diag
        x = np.zeros(self.n) if x0 is None else np.array(x0, dtype=float)
        r, z, p, w = (np.empty(self.n) for _ in range(4))
        if x.any():
            np.subtract(b, K @ x, out=r)
        else:
            r[:] = b
        atol = tol * b_norm
        rho_prev = None
        iterations = max(4 * self.n, 200)
        for it in range(iterations):
            if not math.sqrt(r.dot(r)) >= atol:   # converged, or NaN
                iterations = it
                break
            np.divide(r, diag, out=z)
            rho = r.dot(z)
            if rho_prev is None:
                p[:] = z
            else:
                p *= rho / rho_prev
                p += z
            q = K @ p
            alpha = rho / p.dot(q)
            np.multiply(p, alpha, out=w)
            x += w
            np.multiply(q, alpha, out=w)
            r -= w
            rho_prev = rho
        self.iterations += iterations
        if iterations:
            np.subtract(K @ x, b, out=r)
        # with no iteration, r is still b - K x0: the same residual negated
        res = math.sqrt(r.dot(r))
        if not res <= 4.0 * tol * b_norm:
            raise SolveFailure(
                f"conjugate gradients stalled: residual {res:.3e} "
                f"(target {atol:.3e}, {iterations} iterations)")
        return x


def write_pgm(values: np.ndarray, path, display_max: float) -> None:
    """8-bit binary PGM snapshot with a sidecar recording the scaling.

    Values are mapped affinely from [0, display_max] to [0, 255]; the sidecar
    (path + ".txt") records display_max so the image is quantitative.
    """
    if display_max <= 0:
        raise ValueError("display_max must be positive")
    if values.ndim == 1:
        values = values[None, :]
    scaled = np.clip(values / display_max, 0.0, 1.0)
    bytes_ = np.round(scaled * 255.0).astype(np.uint8)
    h, w = bytes_.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(bytes_.tobytes())
    with open(str(path) + ".txt", "w") as fh:
        fh.write(f"display_max = {display_max!r}\n")
