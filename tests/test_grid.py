"""Lattice construction, masks, the discrete Laplacian and solves."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from degenlog.cli import resolve_scenario
from degenlog.geometry import DomainSpec, SetShape
from degenlog import grid as grid_module
from degenlog.grid import (MaskedOperator, SolveFailure, _pcg, build_grid,
                           dirichlet_matrix, mask_from_shape,
                           mask_within_distance, write_pgm)
from degenlog.scenarios import realize_initial, scenario_grid

UNIT_SQ = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


def apply_laplacian(g, values, mask=None):
    """Discrete negative Laplacian (central stencil, Dirichlet exterior):
    each node's neighbors are read from a zero-padded copy of the values."""
    mask = g.mask if mask is None else mask
    u = np.where(mask, values, 0.0)
    padded = np.pad(u, 1)
    out = 2.0 * g.dim * u
    for axis in range(g.dim):
        for start in (0, 2):
            window = [slice(1, -1)] * g.dim
            window[axis] = slice(start, start + g.shape[axis])
            out -= padded[tuple(window)]
    out /= g.h ** 2
    return np.where(mask, out, 0.0)


def reference_solve(op, rhs, dt, c, tol=1e-10, x0=None):
    """The solve through scipy's `cg` on the lattice system
    K = I + dt A + diag(c), with A = diag(mask) L diag(mask) for the lattice
    Laplacian L, so that K has identity rows off the mask; assembled
    independently of `solve_spd`: the bits `solve_spd` must reproduce."""
    m = sp.diags(op.grid.mask.ravel().astype(float))
    A = (m @ op.grid.laplacian @ m).tocsr()
    diag = 1.0 + dt * A.diagonal() + c
    K = (dt * A).tolil()
    K.setdiag(diag)
    size = len(diag)
    pre = spla.LinearOperator((size, size), matvec=lambda x: x / diag)
    sol, _ = spla.cg(K.tocsr(), rhs, x0=x0, rtol=tol, atol=0.0,
                     maxiter=max(4 * op.n, 200), M=pre)
    return sol


DISC = ("domain.kind=disc", "domain.center=1,1", "domain.radius=1")


@functools.lru_cache(maxsize=None)
def step_system(label, steps, overrides=()):
    """(op, rhs, dt, c, u) of the semi-implicit step after `steps` steps of
    a registry scenario, with --set overrides, on lattice vectors."""
    s = resolve_scenario(label, list(overrides))
    grid = scenario_grid(s)
    op = MaskedOperator(grid)
    u, t, dt = realize_initial(s, grid).ravel(), s.t0, s.scheme.dt
    for k in range(steps + 1):
        n_next = s.params.n_values(t + dt, grid.points())
        c = dt * n_next * u
        rhs = (1.0 + dt * s.params.lam) * u
        if k == steps:
            return op, rhs, dt, c, u
        u = np.maximum(op.solve_spd(rhs, dt, c, x0=u), 0.0)
        t += dt


def bits(v):
    """The raw 64-bit patterns of a float array, signed zeros told apart."""
    return np.ascontiguousarray(v, dtype=float).view(np.int64)


class TestBuildGrid:
    def test_square_shape_and_spacing(self):
        g = build_grid(UNIT_SQ, 16)
        assert g.shape == (15, 15)
        assert g.h == pytest.approx(1.0 / 16)
        assert g.mask.all()          # every interior node is inside a rectangle
        x = g.axis_coords(0)
        assert x[0] == pytest.approx(g.h)
        assert x[-1] == pytest.approx(1.0 - g.h)

    def test_anisotropic_rectangle_keeps_uniform_h(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0))
        g = build_grid(dom, 32)
        assert g.shape == (31, 15)
        assert g.h == pytest.approx(2.0 / 32)

    def test_incompatible_cell_counts_rejected(self):
        # h = 1/16 puts 11.2 cells on the 0.7 side: no uniform spacing
        dom = DomainSpec.rectangle((0.0, 0.0), (1.0, 0.7))
        with pytest.raises(ValueError, match="uniform spacing"):
            build_grid(dom, 16)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_grid(UNIT_SQ, 4)

    def test_disc_mask_area(self):
        dom = DomainSpec.disc((0.0, 0.0), 1.0)
        g = build_grid(dom, 64)
        area = g.mask.sum() * g.cell_volume
        assert area == pytest.approx(math.pi, rel=0.02)

    def test_mask_is_read_only(self):
        # so that one grid may be shared between callers
        g = build_grid(UNIT_SQ, 16)
        with pytest.raises(ValueError, match="read-only"):
            g.mask[0, 0] = False

    def test_interval_grid(self):
        g = build_grid(DomainSpec.rectangle((0.0,), (1.0,)), 32)
        assert g.dim == 1
        assert g.shape == (31,)


class TestLaplacian:
    def test_eigenfunction_of_unit_square(self):
        g = build_grid(UNIT_SQ, 64)
        p = g.points()
        f = (np.sin(math.pi * p[:, 0]) * np.sin(math.pi * p[:, 1])).reshape(
            g.shape)
        # discrete eigenvalue of the 5-point stencil
        lam_h = 4.0 / g.h ** 2 * math.sin(math.pi * g.h / 2.0) ** 2 * 2.0
        assert np.allclose(apply_laplacian(g, f), lam_h * f, atol=1e-10)

    @pytest.mark.parametrize("domain, n, submask", [
        (UNIT_SQ, 16, None),
        (DomainSpec.disc((0.0, 0.0), 1.0), 32, None),
        (UNIT_SQ, 32, SetShape.ball((0.4, 0.55), 0.3)),
        (DomainSpec.rectangle((0.0,), (1.0,)), 32, None),
        (DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0)), 32, None),
    ], ids=["square", "disc", "ball-submask", "interval", "rectangle-2x1"])
    def test_matches_masked_operator(self, domain, n, submask):
        # the mask's packed Dirichlet matrix, unpacked, is the stencil
        g = build_grid(domain, n)
        mask = g.mask if submask is None else mask_from_shape(g, submask)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape)
        via_matrix = np.zeros(g.shape)
        via_matrix[mask] = dirichlet_matrix(g, mask) @ f[mask]
        assert np.allclose(apply_laplacian(g, f, mask), via_matrix)


class TestMasks:
    def test_mask_from_shape_ball_area(self):
        g = build_grid(UNIT_SQ, 64)
        m = mask_from_shape(g, SetShape.ball((0.5, 0.5), 0.3))
        assert m.sum() * g.cell_volume == pytest.approx(math.pi * 0.09, rel=0.03)

    def test_mask_within_distance_grows(self):
        g = build_grid(UNIT_SQ, 64)
        s = SetShape.ball((0.5, 0.5), 0.2)
        m0 = mask_within_distance(g, s, 0.0)
        m1 = mask_within_distance(g, s, 0.1)
        assert np.all(m1[m0])
        assert m1.sum() > m0.sum()


class TestMaskedOperator:
    def test_matrix_symmetric_and_m_matrix(self):
        g = build_grid(DomainSpec.disc((0.0, 0.0), 1.0), 32)
        a = dirichlet_matrix(g, g.mask)
        assert abs(a - a.T).max() == 0.0
        off = a - sp.diags(a.diagonal())
        assert off.max() <= 0.0                    # nonpositive off-diagonal
        assert a.diagonal().min() > 0.0

    def test_solve_spd_accuracy(self):
        g = build_grid(UNIT_SQ, 32)
        op = MaskedOperator(g)
        rng = np.random.default_rng(7)
        x_true = rng.standard_normal(op.n)
        c = rng.uniform(0.0, 2.0, op.n)
        rhs = x_true + 0.25 * (op.matrix @ x_true) + c * x_true
        x = op.solve_spd(rhs, 0.25, c, tol=1e-12)
        assert np.allclose(x, x_true, atol=1e-9)

    def test_negative_reaction_rejected(self):
        g = build_grid(UNIT_SQ, 16)
        op = MaskedOperator(g)
        with pytest.raises(ValueError):
            op.solve_spd(np.ones(op.n), 1.0, -np.ones(op.n))

    def test_solve_failure_reported(self):
        g = build_grid(UNIT_SQ, 16)
        op = MaskedOperator(g)
        with pytest.raises(SolveFailure):
            op.solve_spd(np.ones(op.n), 1.0, np.zeros(op.n), tol=1e-30)

    @pytest.mark.parametrize("state, case", [
        (("trichotomy-mid", 0), "step"),
        (("trichotomy-mid", 3000), "step"),      # saturated: few iterations
        (("trichotomy-high", 0), "step"),
        (("trichotomy-high", 100), "step"),      # near its growth cap
        (("trichotomy-mid", 20, DISC + ("domain.resolution=64",)), "step"),
        (("trichotomy-mid", 20, ("domain.resolution=16",)), "step"),
        (("trichotomy-mid", 20), "x0=None"),
        (("trichotomy-mid", 20), "rhs=0"),
        (("trichotomy-mid", 20), "x0 exact"),    # no iteration
    ], ids=["mid-early", "mid-late", "high-early", "high-late", "disc-3205",
            "square16-225", "x0-none", "rhs-zero", "x0-exact"])
    def test_solve_spd_bits_match_scipy_cg(self, state, case):
        # the loop on solve_spd's assembled K, fed scipy's own start
        # r = rhs - K x0, reproduces scipy's bits; so does the whole solve
        # wherever the start is not scaled: a zero start or right-hand side,
        # or a start already below target
        op, rhs, dt, c, u = step_system(*state)
        x0 = None if case == "x0=None" else u
        if case == "rhs=0":
            rhs = np.zeros_like(u)
        elif case == "x0 exact":
            rhs = u + dt * (op.matrix @ u) + c * u
        want = reference_solve(op, rhs, dt, c, x0=x0)
        if case == "rhs=0":
            got = op.solve_spd(rhs, dt, c, x0=x0)
        else:
            K, diag = op._assemble(dt, c)
            got = np.zeros_like(u) if x0 is None else x0.copy()
            r = rhs - K @ got
            _pcg(K, diag, got, r, 1e-10 * math.sqrt(rhs.dot(rhs)),
                 max(4 * op.n, 200), np.empty((4, len(got))))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if case != "step":
            assert np.array_equal(op.solve_spd(rhs, dt, c, x0=x0), want)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_multiple_of_the_solution_scaled_to_it(self, alpha,
                                                   monkeypatch):
        # the Galerkin factor of alpha x* is 1/alpha - 1: the start lands
        # on x*, and only the start and the final check multiply by K
        op, _, dt, c, u = step_system("trichotomy-mid", 20)
        rhs = u + dt * (op.matrix @ u) + c * u
        counted = _counting_operator(op.grid, monkeypatch)
        got = counted.solve_spd(rhs, dt, c, x0=alpha * u)
        assert np.linalg.norm(got - u) <= 1e-12 * np.linalg.norm(u)
        assert counted.iterations == 0
        assert counted.products == 2

    @pytest.mark.parametrize("start", ["previous", "ones", "random"])
    def test_scaled_start_no_farther_in_k_norm(self, start, monkeypatch):
        op, _, dt, c, u = step_system("trichotomy-mid", 20)
        K, _ = op._assemble(dt, c)
        rhs = K @ u
        x0 = {"previous": step_system("trichotomy-mid", 19)[4],
              "ones": np.ones(op.n),
              "random": np.random.default_rng(3).uniform(0.0, 2.0, op.n),
              }[start]
        starts = []

        def spy(K, diag, x, r, atol, maxiter, work):
            starts.append(x.copy())      # the start the loop receives
            return _pcg(K, diag, x, r, atol, maxiter, work)

        monkeypatch.setattr(grid_module, "_pcg", spy)
        op.solve_spd(rhs, dt, c, x0=x0)

        def k_error(x):
            e = x - u
            return e.dot(K @ e)

        assert k_error(starts[0]) <= k_error(x0)

    @pytest.mark.parametrize("state, case", [
        (("trichotomy-mid", 0), "step"),
        (("trichotomy-high", 100), "step"),
        (("trichotomy-mid", 20, ("domain.resolution=16",)), "step"),
        (("trichotomy-mid", 20), "x0 exact"),    # no iteration
    ], ids=["mid-early", "high-late", "square16-225", "x0-exact"])
    def test_solve_spd_matrix_products(self, state, case, monkeypatch):
        # one product with K per iteration, one for the initial residual
        # (which the scaled start reuses) and one for the final residual
        # check, which a start already below target skips: no dtype probe
        op, rhs, dt, c, u = step_system(*state)
        if case == "x0 exact":
            rhs = u + dt * (op.matrix @ u) + c * u
        counted = _counting_operator(op.grid, monkeypatch)
        counted.solve_spd(rhs, dt, c, x0=u)
        products = counted.products
        if case == "x0 exact":
            assert counted.iterations == 0 and products == 1
        else:
            assert counted.iterations > 0
            assert products == counted.iterations + 2

    def test_solve_spd_overwrites_assembled_system(self):
        # K is overwritten in place on every solve: back on (dt1, c1) after
        # (dt2, c2), an operator must give a fresh operator's bits
        op, rhs, dt, c, u = step_system("trichotomy-mid", 20)
        systems = [(dt, c), (2.5 * dt, 0.5 * c + 1.0), (dt, c)]
        reused = MaskedOperator(op.grid)
        for dt_k, c_k in systems:
            got = reused.solve_spd(rhs, dt_k, c_k, x0=u)
            want = MaskedOperator(op.grid).solve_spd(rhs, dt_k, c_k, x0=u)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("domain, n", [
        (UNIT_SQ, 16),
        (DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0)), 32),
        (DomainSpec.rectangle((0.0,), (1.0,)), 32),
    ], ids=["square", "rectangle-2x1", "interval"])
    def test_lattice_product_is_the_packed_product(self, domain, n):
        # on a rectangle the lattice vector is the packed vector, and K by
        # diagonals multiplies as the packed CSR K, dt A with its diagonal
        # set to 1 + dt diag(A) + c, bit for bit
        op = MaskedOperator(build_grid(domain, n))
        rng = np.random.default_rng(5)
        dt, c = 0.01, rng.uniform(0.0, 2.0, op.n)
        K, diag = op._assemble(dt, c)
        assert K.format == "dia" and op.n == op.grid.mask.size
        packed = op.matrix.copy()
        packed.data *= dt
        packed.setdiag(diag)
        for v in (rng.standard_normal(op.n), rng.uniform(0.0, 1.0, op.n)):
            assert np.array_equal(bits(K @ v), bits(packed @ v))

    @pytest.mark.parametrize("domain, n", [
        (UNIT_SQ, 16),
        (DomainSpec.disc((1.0, 1.0), 1.0), 64),
        (DomainSpec.rectangle((0.0,), (1.0,)), 32),
    ], ids=["square", "disc", "interval"])
    def test_product_kernel_is_the_matmul(self, domain, n):
        # the solves multiply through scipy's private DIA kernel into a
        # kept buffer; a scipy that changes the kernel or its signature
        # fails here rather than in a run
        op = MaskedOperator(build_grid(domain, n))
        rng = np.random.default_rng(11)
        mask = op.grid.mask.ravel()
        K, _ = op._assemble(0.01, np.where(mask, rng.uniform(0.0, 2.0,
                                                             mask.size), 0.0))
        out = np.full(mask.size, np.nan)     # stale contents must not leak
        for v in (rng.standard_normal(mask.size),
                  np.where(mask, rng.uniform(0.0, 1.0, mask.size), 0.0)):
            got = grid_module._product(K, v, out)
            assert got is out and np.array_equal(bits(got), bits(K @ v))

    @pytest.mark.parametrize("resolution", [16, 64])
    @pytest.mark.parametrize("start", ["state", "zero"])
    def test_solve_spd_zero_off_a_disc(self, resolution, start):
        # off the mask K has identity rows and no couplings: a state that
        # vanishes there stays exactly zero there
        op, rhs, dt, c, u = step_system(
            "trichotomy-mid", 20, DISC + (f"domain.resolution={resolution}",))
        off = ~op.grid.mask.ravel()
        assert off.any() and not rhs[off].any() and not u[off].any()
        fresh = MaskedOperator(op.grid)
        x = fresh.solve_spd(rhs, dt, c, x0=u if start == "state" else None)
        assert fresh.iterations > 0 and len(x) == op.grid.mask.size
        assert np.all(x[off] == 0.0)

    def test_nan_reaction_fails_loudly(self):
        op = MaskedOperator(build_grid(UNIT_SQ, 16))
        c = np.zeros(op.n)
        c[17] = np.nan
        with pytest.raises(SolveFailure), np.errstate(invalid="ignore"):
            op.solve_spd(np.ones(op.n), 0.01, c)

    def test_infinite_rhs_fails_loudly(self):
        op = MaskedOperator(build_grid(UNIT_SQ, 16))
        rhs = np.ones(op.n)
        rhs[17] = np.inf
        with pytest.raises(SolveFailure), np.errstate(invalid="ignore"):
            op.solve_spd(rhs, 0.01, np.zeros(op.n))


def _counting_operator(grid, monkeypatch):
    """A fresh operator whose products with its K, made through the one
    product function, are counted in op.products."""
    op = MaskedOperator(grid)
    op.products = 0
    product = grid_module._product

    def counted(K, v, out):
        op.products += K is op._system[0]
        return product(K, v, out)

    monkeypatch.setattr(grid_module, "_product", counted)
    return op


class TestPgm:
    def test_header_payload_and_sidecar(self, tmp_path):
        g = build_grid(UNIT_SQ, 16)
        path = tmp_path / "snap.pgm"
        write_pgm(g.points()[:, 0].reshape(g.shape), path, display_max=2.0)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n15 15\n255\n")
        assert len(raw) == len(b"P5\n15 15\n255\n") + 15 * 15
        sidecar = (tmp_path / "snap.pgm.txt").read_text()
        assert "display_max = 2.0" in sidecar

    def test_values_clipped_to_display_max(self, tmp_path):
        g = build_grid(UNIT_SQ, 16)
        path = tmp_path / "snap.pgm"
        write_pgm(np.full(g.shape, 10.0), path, display_max=1.0)
        payload = path.read_bytes()[len(b"P5\n15 15\n255\n"):]
        assert max(payload) == 255
