"""Uniform Cartesian lattice, interior masks and the Dirichlet Laplacian.

Nodes live on a uniform lattice over the domain's bounding box; a node belongs
to the computational mask iff its center lies in the open domain.  A grid
function is a plain array of shape `Grid.shape` that is zero off the mask,
which realizes the homogeneous Dirichlet condition in the 3/5-point stencil;
MaskedOperator packs it to the mask's nodes and extends it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import DomainSpec, SetShape

__all__ = [
    "Grid",
    "SolveFailure",
    "build_grid",
    "mask_from_shape",
    "mask_connected_components",
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


def build_grid(domain: DomainSpec, n) -> Grid:
    """Lattice with n cells per axis; nodes are cell corners strictly inside.

    n may be an int (applied to the first axis, remaining axes sized to keep
    the spacing uniform) or a per-axis tuple whose spacings must agree.
    """
    lo, hi = domain.bounding_box()
    extent = hi - lo
    if isinstance(n, (tuple, list)):
        cells = [int(v) for v in n]
    else:
        n0 = int(n)
        h0 = extent[0] / n0
        cells = [n0] + [int(round(extent[a] / h0)) for a in range(1, len(extent))]
    if any(c < 8 for c in cells):
        raise ValueError("need at least 8 cells per axis")
    h = extent[0] / cells[0]
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


def _roll_valid(shape, axis, shift):
    """Mask that zeroes the wrap-around column introduced by np.roll."""
    valid = np.ones(shape, dtype=bool)
    idx = [slice(None)] * len(shape)
    idx[axis] = 0 if shift == 1 else -1
    valid[tuple(idx)] = False
    return valid


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


def mask_connected_components(m: np.ndarray) -> int:
    """Number of orthogonally connected components."""
    structure = ndi.generate_binary_structure(m.ndim, 1)
    _, count = ndi.label(m, structure=structure)
    return count


class MaskedOperator:
    """Negative Laplacian restricted to a mask, with SPD solves.

    Assembles the sparse matrix once; solves (I + dt A + diag(c)) u = rhs by
    preconditioned conjugate gradients with a plain diagonal preconditioner.
    Solves are deterministic and single-threaded.  Packed vectors list the
    mask's nodes in C order, as `points` does.
    """

    def __init__(self, grid: Grid, mask: np.ndarray | None = None):
        self.grid = grid
        self.mask = grid.mask if mask is None else (mask & grid.mask)
        if not self.mask.any():
            raise ValueError("empty mask")
        self.n = int(self.mask.sum())
        self._index = -np.ones(grid.shape, dtype=np.int64)
        self._index[self.mask] = np.arange(self.n)
        self.matrix = self._assemble()

    def _assemble(self) -> sp.csr_matrix:
        g = self.grid
        h2 = g.h ** 2
        rows, cols, vals = [], [], []
        diag = np.full(self.n, 2.0 * g.dim / h2)
        for axis in range(g.dim):
            here = self._index
            there = np.roll(here, -1, axis=axis)
            valid = _roll_valid(g.shape, axis, -1)
            pair = (here >= 0) & (there >= 0) & valid
            i, j = here[pair], there[pair]
            rows.extend([i, j])
            cols.extend([j, i])
            vals.extend([np.full(len(i), -1.0 / h2)] * 2)
        rows.append(np.arange(self.n))
        cols.append(np.arange(self.n))
        vals.append(diag)
        a = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n))
        return a.tocsr()

    @cached_property
    def points(self) -> np.ndarray:
        """Coordinates of the mask's nodes, shape (n, dim)."""
        return self.grid.points()[self.mask.ravel()]

    def restrict(self, values: np.ndarray) -> np.ndarray:
        return values[self.mask]

    def extend(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        out[self.mask] = vec
        return out

    def solve_spd(self, rhs: np.ndarray, dt: float, c: np.ndarray,
                  tol: float = 1e-10,
                  x0: np.ndarray | None = None) -> np.ndarray:
        """Solve (I + dt A + diag(c)) u = rhs to relative residual <= tol."""
        if np.any(c < 0):
            raise ValueError("reaction coefficient c must be nonnegative")
        A = self.matrix

        def matvec(x):
            return x + dt * (A @ x) + c * x

        diag = 1.0 + dt * A.diagonal() + c
        op = spla.LinearOperator((self.n, self.n), matvec=matvec)
        pre = spla.LinearOperator((self.n, self.n), matvec=lambda x: x / diag)
        sol, info = spla.cg(op, rhs, x0=x0, rtol=tol, atol=0.0,
                            maxiter=max(4 * self.n, 200), M=pre)
        rhs_norm = float(np.linalg.norm(rhs))
        res = float(np.linalg.norm(matvec(sol) - rhs))
        if rhs_norm > 0 and res > 4.0 * tol * rhs_norm:
            raise SolveFailure(
                f"conjugate gradients stalled: residual {res:.3e} "
                f"(target {tol * rhs_norm:.3e}, info={info})")
        return sol


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
