"""Uniform Cartesian lattice, interior masks and the Dirichlet Laplacian.

Nodes live on a uniform lattice over the domain's bounding box; a node belongs
to the computational mask iff its center lies in the open domain.  A grid
function is a plain array of shape `Grid.shape` that is zero off the mask,
which realizes the homogeneous Dirichlet condition in the 3/5-point stencil.
`build_grid` keeps one grid per domain and resolution, so `Grid.laplacian`,
that stencil on every lattice node, is built once per lattice, and two
objects are built from it.  `dirichlet_matrix` is its principal
submatrix on a mask's nodes: the mask's Dirichlet Laplacian on packed
vectors (the mask's values in C order), which the eigen solves factor.
`MaskedOperator` is the time-step system K = I + dt A + diag(c) on lattice
vectors (grid functions raveled in C order), with K stored by diagonals
over the whole lattice: zero couplings to nodes off the mask and identity
rows there, so on a rectangle it is the packed system itself.  Each solve
writes only K's main diagonal (dt A only when dt changes), scales its start
by the Galerkin factor along it, then runs scipy's Jacobi-preconditioned CG
loop written out bit for bit, one sparse product per iteration.  Every
product with K is scipy's own DIA kernel, the one `K @ v` runs, written into
one of the operator's kept buffers, and the solution into the caller's
buffer, so that a solve allocates no vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec

from .geometry import DomainSpec, SetShape

__all__ = [
    "Grid",
    "SolveFailure",
    "build_grid",
    "mask_from_shape",
    "dirichlet_matrix",
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
    mask: np.ndarray       # read-only bool, True on interior nodes

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


@cache
def build_grid(domain: DomainSpec, n: int) -> Grid:
    """Lattice with n cells on the first axis and the remaining axes sized
    to keep the spacing uniform; nodes are cell corners strictly inside.
    Memoized: a Grid is frozen, so every caller on one lattice shares it.
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
    mask.flags.writeable = False   # so that callers may share one grid
    object.__setattr__(grid, "mask", mask)
    return grid


def mask_from_shape(grid: Grid, s: SetShape) -> np.ndarray:
    """Interior nodes lying in the set (distance zero)."""
    return mask_within_distance(grid, s, 0.0)


def mask_within_distance(grid: Grid, s: SetShape, delta: float) -> np.ndarray:
    """Interior nodes within distance delta of the set (exact dilation)."""
    if s.is_empty:
        return np.zeros(grid.shape, dtype=bool)
    d = s.distance(grid.points()).reshape(grid.shape)
    return (d <= delta) & grid.mask


def dirichlet_matrix(grid: Grid, mask: np.ndarray) -> sp.csr_matrix:
    """Dirichlet Laplacian of the nodes of mask & grid.mask on packed
    vectors: the principal submatrix of `Grid.laplacian` on those nodes, in
    C order, so that out[mask & grid.mask] = vec unpacks a vector."""
    idx = np.flatnonzero(mask & grid.mask)
    return grid.laplacian[idx][:, idx]


class MaskedOperator:
    """The grid's time-step system K = I + dt A + diag(c), A the Dirichlet
    Laplacian of `grid.mask`, with SPD solves on lattice vectors.

    `solve_spd` solves K u = rhs by conjugate gradients with the Jacobi
    (diagonal) preconditioner; every vector it takes or returns is a
    lattice vector.  Solves are deterministic and single-threaded; each
    overwrites the operator's storage for K and its work vectors, so an
    operator serves one solve at a time.  Over the operator's solves,
    `iterations` is the running total of CG iterations, `max_iterations`
    the most one solve took, and `worst_residual_ratio` the largest final
    residual over its target tol ||rhs||.  `n` counts the mask's nodes; `matrix`, the packed
    `dirichlet_matrix(grid, grid.mask)`, is read by
    `perfbench/workloads.describe_inputs`, never by the step.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.n = int(np.count_nonzero(grid.mask))
        self.iterations = 0
        self.max_iterations = 0
        self.worst_residual_ratio = 0.0
        self._dt_part = None      # (dt, 1 + dt diag(A)) of the last solve

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return dirichlet_matrix(self.grid, self.grid.mask)

    @cached_property
    def _system(self) -> tuple:
        """Storage for K = I + dt A + diag(c) over the lattice: K as a
        dia_matrix whose data solves overwrite, A by the same diagonals and
        five work vectors, built on the first solve.  The offsets ascend
        (-ny, -1, 0, 1, ny in 2-d), so each row sums in the packed CSR
        matrix's column order; data[i, j] = A[j - offsets[i], j] is zero
        for couplings that leave the mask or a lattice row, and on the main
        diagonal off the mask, where K's rows are those of I + diag(c)."""
        lap, m = self.grid.laplacian, self.grid.mask.ravel()
        size = m.size
        strides = np.cumprod((1,) + self.grid.shape[:0:-1])[::-1]
        offsets = np.concatenate([-strides, [0], strides[::-1]])
        a = np.zeros((len(offsets), size))
        for row, k in zip(a, offsets):
            lo, hi = max(k, 0), size + min(k, 0)
            row[lo:hi] = np.where(m[lo:hi] & m[lo - k:hi - k],
                                  lap.diagonal(k), 0.0)
        K = sp.dia_matrix((np.empty_like(a), offsets), shape=(size, size))
        return K, a, np.empty((5, size))

    def _assemble(self, dt: float, c: np.ndarray) -> tuple:
        """K = I + dt A + diag(c) in `_system`'s storage, and its diagonal
        1 + dt diag(A) + c, which is also the Jacobi preconditioner.

        dt A goes into K.data, and 1 + dt diag(A) into a cache, only when
        dt differs from the previous solve's; a run keeps one dt, so each
        of its steps writes the main diagonal alone, in place."""
        K, a, _ = self._system
        main = self.grid.dim
        if self._dt_part is None or self._dt_part[0] != dt:
            np.multiply(a, dt, out=K.data)
            self._dt_part = (dt, 1.0 + K.data[main])
        diag = K.data[main]
        np.add(self._dt_part[1], c, out=diag)
        return K, diag

    def solve_spd(self, rhs: np.ndarray, dt: float, c: np.ndarray,
                  tol: float = 1e-10, x0: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Solve K u = rhs, K = I + dt A + diag(c), to relative residual
        <= tol, on lattice vectors (length prod(grid.shape), C order), and
        return u in out (a fresh vector if out is None).

        rhs, c and x0 vanish off the mask, and then so does u, exactly.
        The solve writes to none of them; out must share no memory with
        rhs or c.  K is assembled in place (`_assemble`).  The start x0
        (zero if None) is copied into out.  If its residual
        r = rhs - K x0 is not already below target and x0.K x0 > 0 (x0 is
        not zero), it is first scaled by its Galerkin factor: x0 becomes
        (1 + g) x0 with g = x0.r / x0.K x0, the multiple of x0 nearest the
        solution in the K-norm, and r becomes r - g K x0 from the product
        already taken.  From (x, r) the loop is `_pcg`.  r is then a
        recursive residual, so the final residual is recomputed as
        K x - rhs after every solve that scaled or iterated; SolveFailure
        is raised unless it is within 4 tol ||rhs||, NaN included.
        """
        if c.min() < 0:     # a NaN passes, and fails the residual check
            raise ValueError("reaction coefficient c must be nonnegative")
        b = np.asarray(rhs, dtype=float)
        x = np.empty(len(b)) if out is None else out
        b_norm = math.sqrt(b.dot(b))
        if b_norm == 0:
            np.copyto(x, b)
            return x
        K, diag = self._assemble(dt, c)
        r, kx, z, p, w = self._system[2]   # kx: K x0 here, K p in _pcg
        atol = tol * b_norm
        np.copyto(x, 0.0 if x0 is None else x0)
        np.subtract(b, _product(K, x, kx), out=r)
        scaled = False
        if math.sqrt(r.dot(r)) >= atol:
            xkx = x.dot(kx)
            if xkx > 0:
                g = x.dot(r) / xkx
                x *= 1.0 + g
                kx *= g
                r -= kx
                scaled = True
        iterations = _pcg(K, diag, x, r, atol, max(4 * self.n, 200),
                          (z, p, kx, w))
        self.iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)
        if iterations or scaled:
            np.subtract(_product(K, x, kx), b, out=r)
        # otherwise r is still b - K x0: the same residual negated
        res = math.sqrt(r.dot(r))
        if not res <= 4.0 * tol * b_norm:
            raise SolveFailure(
                f"conjugate gradients stalled: residual {res:.3e} "
                f"(target {atol:.3e}, {iterations} iterations)")
        self.worst_residual_ratio = max(self.worst_residual_ratio,
                                        res / atol)
        return x


def _product(K: sp.dia_matrix, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K v written into out and returned: scipy's kernel for `K @ v` (1.17,
    `_dia_base._matmul_vector`), which adds each diagonal's products to a
    zeroed vector, so the bits are those of `K @ v` without the fresh
    result array.  Every product with the step's K goes through here."""
    out.fill(0.0)
    dia_matvec(*K.shape, len(K.offsets), K.data.shape[1], K.offsets, K.data,
               v, out)
    return out


def _pcg(K, diag: np.ndarray, x: np.ndarray, r: np.ndarray, atol: float,
         maxiter: int, work) -> int:
    """Jacobi-preconditioned conjugate gradients on K from the iterate x
    and its residual r, both updated in place, until ||r|| < atol (or NaN);
    returns the iterations taken.  work holds four vectors of x's length
    that the loop overwrites.

    This is scipy's `cg` (1.17) loop with the preconditioner diag written
    out, one product with K per iteration: every floating-point operation in
    the same order, so from r = rhs - K x the bits match `cg(K, rhs, x,
    rtol=atol / ||rhs||, atol=0, maxiter=maxiter, M=...)`.
    """
    z, p, q, w = work
    rho_prev = None
    for it in range(maxiter):
        if not math.sqrt(r.dot(r)) >= atol:   # converged, or NaN
            return it
        np.divide(r, diag, out=z)
        rho = r.dot(z)
        if rho_prev is None:
            p[:] = z
        else:
            p *= rho / rho_prev
            p += z
        _product(K, p, q)
        alpha = rho / p.dot(q)
        np.multiply(p, alpha, out=w)
        x += w
        np.multiply(q, alpha, out=w)
        r -= w
        rho_prev = rho
    return maxiter


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
