"""Dirichlet eigenvalues on masked subdomains and the characteristic value."""

import math

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from degenlog.geometry import DomainSpec, SetShape
from degenlog.grid import (build_grid, dirichlet_matrix, mask_from_shape,
                           mask_within_distance)
from degenlog import spectral
from degenlog.spectral import (EigenFailure, Lambda0Estimate, analytic_lambda1,
                               bessel_j0_first_root, lambda0_deltas,
                               lambda0_of_set, principal_eigenpair,
                               principal_eigenvalue, second_eigenvalue)

UNIT_SQ = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


class TestBesselRoot:
    def test_value(self):
        assert bessel_j0_first_root() == pytest.approx(2.404825557695773,
                                                       abs=1e-10)


class TestAnalytic:
    def test_square(self):
        assert analytic_lambda1(UNIT_SQ) == pytest.approx(2.0 * math.pi ** 2)

    def test_rectangle(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0))
        assert analytic_lambda1(dom) == pytest.approx(1.25 * math.pi ** 2)

    def test_interval(self):
        assert analytic_lambda1(DomainSpec.rectangle((0.0,), (2.0,))) == \
            pytest.approx(math.pi ** 2 / 4.0)

    def test_disc_domain_and_ball_shape(self):
        j = bessel_j0_first_root()
        assert analytic_lambda1(DomainSpec.disc((0, 0), 0.5)) == \
            pytest.approx(j ** 2 / 0.25)
        assert analytic_lambda1(SetShape.ball((0, 0), 0.5)) == \
            pytest.approx(j ** 2 / 0.25)

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            analytic_lambda1(SetShape.sector((0, 0), 1.0, 0.0, 1.0))


class TestPrincipalEigenpair:
    def test_square_value_and_mode(self):
        g = build_grid(UNIT_SQ, 48)
        pair = principal_eigenpair(g, g.mask)
        assert pair.value == pytest.approx(2.0 * math.pi ** 2, rel=5e-3)
        phi = pair.vector
        assert np.all(phi[g.mask] > 0.0)
        assert math.sqrt(np.sum(phi ** 2) * g.cell_volume) == \
            pytest.approx(1.0, abs=1e-8)

    def test_residual_small(self):
        g = build_grid(UNIT_SQ, 24)
        pair = principal_eigenpair(g, g.mask, tol=1e-12)
        v = pair.vector[g.mask]
        res = np.linalg.norm(dirichlet_matrix(g, g.mask) @ v - pair.value * v)
        assert res <= 1e-8 * pair.value * np.linalg.norm(v)

    def test_disconnected_mask_rejected(self):
        g = build_grid(UNIT_SQ, 32)
        two = (mask_from_shape(g, SetShape.ball((0.25, 0.25), 0.1))
               | mask_from_shape(g, SetShape.ball((0.75, 0.75), 0.1)))
        with pytest.raises(ValueError):
            principal_eigenpair(g, two)

    def test_empty_mask_rejected(self):
        g = build_grid(UNIT_SQ, 16)
        with pytest.raises(ValueError):
            principal_eigenpair(g, np.zeros(g.shape, dtype=bool))

    def test_mask_cut_to_the_domain(self):
        # an eigen solve sees mask & grid.mask: on a disc the all-True
        # lattice mask gives the domain's own bits, and a mask with no node
        # in the domain is empty
        g = build_grid(DomainSpec.disc((0.0, 0.0), 1.0), 32)
        lattice = np.ones(g.shape, dtype=bool)
        assert not g.mask.all()
        assert principal_eigenvalue(g, lattice) == \
            principal_eigenvalue(g, g.mask)
        got = principal_eigenpair(g, lattice)
        want = principal_eigenpair(g, g.mask)
        assert got.value == want.value
        assert np.array_equal(got.vector, want.vector)
        corner = np.zeros(g.shape, dtype=bool)
        corner[0, 0] = True
        assert not g.mask[0, 0]
        with pytest.raises(ValueError, match="nonempty mask"):
            principal_eigenvalue(g, corner)


class TestPrincipalEigenvalueDisconnected:
    def test_min_over_components(self):
        g = build_grid(UNIT_SQ, 64)
        big = mask_from_shape(g, SetShape.ball((0.3, 0.3), 0.2))
        small = mask_from_shape(g, SetShape.ball((0.75, 0.75), 0.1))
        both = big | small
        v_big = principal_eigenvalue(g, big)
        v_small = principal_eigenvalue(g, small)
        assert principal_eigenvalue(g, both) == pytest.approx(
            min(v_big, v_small))
        assert v_big < v_small


class TestComponents:
    """Face-connected components come from the graph of the mask's packed
    Dirichlet matrix; scipy.ndimage.label is the reference."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_match_ndimage_label(self, dim):
        grid = build_grid(DomainSpec.rectangle((0.0,) * dim, (1.0,) * dim),
                          48 if dim == 1 else 24)
        rng = np.random.default_rng(dim)
        masks = [grid.mask] + [
            (rng.random(grid.shape) < rng.uniform(0.3, 0.9)) & grid.mask
            for _ in range(40)]
        seen = set()
        for mask in masks:
            labels, n_comp = ndi.label(mask)
            if n_comp == 0:
                continue
            seen.add(min(n_comp, 2))
            parts = spectral._components(grid, mask)
            assert len(parts) == n_comp
            for c, part in enumerate(parts, start=1):
                # the same CSR arrays as the component mask's own matrix
                want = dirichlet_matrix(grid, labels == c)
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(part, attr),
                                          getattr(want, attr))
        assert seen == {1, 2}

    def test_strong_components_match_weak(self):
        # _components asks for strong components, which scipy finds
        # faster; on the symmetric pattern they are the weak ones, in order
        grid = build_grid(UNIT_SQ, 64)
        rng = np.random.default_rng(5)
        for _ in range(30):
            mask = (rng.random(grid.shape) < rng.uniform(0.3, 0.9)) & grid.mask
            matrix = dirichlet_matrix(grid, mask)
            weak = connected_components(matrix, directed=False)
            strong = connected_components(matrix, directed=True,
                                          connection="strong")
            assert weak[0] == strong[0]
            assert np.array_equal(weak[1], strong[1])


class TestSecondEigenvalue:
    def test_square(self):
        g = build_grid(UNIT_SQ, 48)
        assert second_eigenvalue(g, g.mask) == pytest.approx(
            5.0 * math.pi ** 2, rel=1e-2)

    def test_exceeds_principal(self):
        g = build_grid(UNIT_SQ, 32)
        m = mask_from_shape(g, SetShape.ball((0.5, 0.5), 0.35))
        assert second_eigenvalue(g, m) > principal_eigenvalue(g, m)

    def test_needs_three_nodes(self):
        g = build_grid(UNIT_SQ, 16)
        m = np.zeros(g.shape, dtype=bool)
        m[8, 7:9] = True
        with pytest.raises(ValueError, match="at least 3 nodes"):
            second_eigenvalue(g, m)
        m[8, 9] = True
        vals = np.linalg.eigvalsh(dirichlet_matrix(g, m).toarray())
        assert second_eigenvalue(g, m) == pytest.approx(vals[1], rel=1e-10)

    def test_loose_pair_raises(self, monkeypatch):
        g = build_grid(UNIT_SQ, 16)
        solve = spectral._smallest_eigenpairs
        noise = np.random.default_rng(5).standard_normal(g.mask.sum())

        def perturbed(a, k, tol):
            vals, vecs = solve(a, k, tol)
            vecs[:, 1] += 1e-5 * noise / np.linalg.norm(noise)
            return vals, vecs

        monkeypatch.setattr(spectral, "_smallest_eigenpairs", perturbed)
        with pytest.raises(EigenFailure, match="second eigenvalue"):
            second_eigenvalue(g, g.mask)

    def test_nan_pair_raises(self, monkeypatch):
        # a NaN residual compares false with its bound, so it must be caught
        # as "not within", not as "above"
        g = build_grid(UNIT_SQ, 16)

        def nan_pairs(a, k, tol):
            return np.full(k, np.nan), np.full((a.shape[0], k), np.nan)

        monkeypatch.setattr(spectral, "_smallest_eigenpairs", nan_pairs)
        with pytest.raises(EigenFailure, match="principal eigenvalue nan"):
            principal_eigenpair(g, g.mask)
        with pytest.raises(EigenFailure, match="second eigenvalue nan"):
            second_eigenvalue(g, g.mask)

    @pytest.mark.xfail(strict=True, reason="the constant Lanczos start "
                       "vector is orthogonal to the second mode of this "
                       "mask (overlap ~1e-15), so eigsh returns lambda_3")
    def test_matches_dense_on_carried_growth_sanctuary(self):
        g = build_grid(DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), 64)
        m = mask_from_shape(g, SetShape.ball((0.83, 1.0), 0.52))
        vals = np.linalg.eigvalsh(dirichlet_matrix(g, m).toarray())
        assert second_eigenvalue(g, m) == pytest.approx(vals[1], rel=1e-8)


def _default_shift_invert(grid, mask, k):
    """The k smallest eigenvalues from scipy's own shift-invert factor
    (splu with its default COLAMD ordering) from the constant start."""
    a = dirichlet_matrix(grid, mask).tocsc()
    n = a.shape[0]
    vals = spla.eigsh(a, k, sigma=0.0, v0=np.full(n, 1.0 / math.sqrt(n)),
                      tol=1e-10, return_eigenvectors=False)
    return np.sort(vals)


SQUARE_63 = build_grid(DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), 64)
INTERVAL_63 = build_grid(DomainSpec.rectangle((0.0,), (2.0,)), 64)
THIN_4 = build_grid(DomainSpec.rectangle((0.0, 0.0), (4.0, 1.0)), 32)
THIN_8 = build_grid(DomainSpec.rectangle((0.0, 0.0), (8.0, 1.0)), 64)
DISC_32 = build_grid(DomainSpec.disc((0.0, 0.0), 1.0), 32)
LINE_GRID = build_grid(UNIT_SQ, 16)


def _line(length):
    """A mask of `length` nodes in one lattice row."""
    m = np.zeros(LINE_GRID.shape, dtype=bool)
    m[7, 1:1 + length] = True
    return m


class TestSymmetricModeFactor:
    """The symmetric-mode minimum-degree LU behind the eigen solves agrees
    with eigsh's default factor to 1e-12 relative, and the principal
    solve's 10-vector Lanczos basis with the dense spectrum to 1e-10."""

    # thin rectangles crowd lambda_2 up to lambda_1 (ratios 1.18 and 1.05),
    # and below 10 nodes the basis is capped at the mask's size
    @pytest.mark.parametrize("grid, mask", [
        (THIN_4, THIN_4.mask),
        (THIN_8, THIN_8.mask),
        (DISC_32, DISC_32.mask),
    ] + [(LINE_GRID, _line(n)) for n in range(2, 14)],
        ids=["rect-4x1", "rect-8x1", "disc-32"]
        + [f"line-{n}" for n in range(2, 14)])
    def test_matches_dense(self, grid, mask):
        vals = np.linalg.eigvalsh(dirichlet_matrix(grid, mask).toarray())
        assert principal_eigenvalue(grid, mask) == pytest.approx(vals[0],
                                                                 rel=1e-10)
        if len(vals) >= 3:
            assert second_eigenvalue(grid, mask) == pytest.approx(vals[1],
                                                                  rel=1e-10)

    @pytest.mark.parametrize("grid, mask", [
        (SQUARE_63, SQUARE_63.mask),
        (SQUARE_63, mask_from_shape(SQUARE_63,
                                    SetShape.ball((1.0, 1.0), 0.45))),
        (INTERVAL_63, INTERVAL_63.mask),
    ], ids=["square", "ball", "interval"])
    def test_matches_default_factor(self, grid, mask):
        lam1 = _default_shift_invert(grid, mask, 1)[0]
        lam2 = _default_shift_invert(grid, mask, 2)[1]
        assert principal_eigenvalue(grid, mask) == pytest.approx(lam1,
                                                                 rel=1e-12)
        assert second_eigenvalue(grid, mask) == pytest.approx(lam2,
                                                              rel=1e-12)


class TestDeltaSchedule:
    def test_geometric_down_to_resolution(self):
        # delta0 = max(8h, 0.1): 8h on the coarse grid, 0.1 on the fine one;
        # halved while it stays at least 2h
        for n, first in ((16, 0.5), (128, 0.1)):
            grid = build_grid(UNIT_SQ, n)
            deltas = lambda0_deltas(grid)
            assert deltas[0] == first
            assert all(b == 0.5 * a for a, b in zip(deltas, deltas[1:]))
            assert deltas[-1] >= 2.0 * grid.h > deltas[-1] * 0.5


class TestLambda0:
    def test_ball_matches_own_principal_value(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))
        g = build_grid(dom, 128)
        est = lambda0_of_set(g, SetShape.ball((1.0, 1.0), 0.4))
        assert est.is_finite
        target = analytic_lambda1(SetShape.ball((1.0, 1.0), 0.4))
        assert est.value == pytest.approx(target, rel=0.05)

    def test_point_is_infinite(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))
        g = build_grid(dom, 96)
        est = lambda0_of_set(g, SetShape.point((0.5, 0.5)))
        assert est.verdict == "infinite"
        assert est.value == math.inf

    def test_values_monotone_as_neighborhood_shrinks(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))
        g = build_grid(dom, 64)
        est = lambda0_of_set(g, SetShape.ball((0.5, 0.5), 0.2))
        assert all(b >= a for a, b in zip(est.values, est.values[1:]))

    def test_empty_set_rejected(self):
        g = build_grid(UNIT_SQ, 16)
        with pytest.raises(ValueError):
            lambda0_of_set(g, SetShape.empty())

    @pytest.mark.parametrize("k", [
        SetShape.ball((1.0, 1.0), 0.45),
        SetShape.union([SetShape.sector((1.0, 1.0), 0.5, a, a + 1.0)
                        for a in np.linspace(0.0, 3.0, 7)])])
    def test_one_distance_field_per_ladder(self, k, monkeypatch):
        g = build_grid(DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), 64)
        calls = []
        distance = SetShape.distance

        def counted(self, points):
            calls.append(self)
            return distance(self, points)

        monkeypatch.setattr(SetShape, "distance", counted)
        est = lambda0_of_set(g, k)
        assert calls == [k]
        monkeypatch.undo()
        per_delta = tuple(
            principal_eigenvalue(g, mask_within_distance(g, k, d))
            for d in est.deltas)
        assert est.values == per_delta

    def test_nonmonotone_deltas_rejected(self):
        g = build_grid(UNIT_SQ, 32)
        with pytest.raises(ValueError):
            lambda0_of_set(g, SetShape.ball((0.5, 0.5), 0.2),
                           deltas=(0.1, 0.1))

    @pytest.mark.parametrize("deltas", [
        (), (math.nan,), (math.inf, 0.1), (0.2, 0.1, -0.1), (0.0,)])
    def test_bad_ladder_named(self, deltas):
        g = build_grid(UNIT_SQ, 32)
        with pytest.raises(ValueError, match="deltas must be nonempty"):
            lambda0_of_set(g, SetShape.ball((0.5, 0.5), 0.2), deltas=deltas)


class TestOneSolvePerProblem:
    """Inside _one_solve_per_problem (each predict() call), a principal
    eigenproblem met twice is solved once; outside it, every call solves."""

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        solve = spectral._smallest_eigenpairs

        def counted(a, k, tol):
            calls.append(k)
            return solve(a, k, tol)

        monkeypatch.setattr(spectral, "_smallest_eigenpairs", counted)
        return calls

    def test_no_memo_outside_a_prediction(self, monkeypatch):
        g = build_grid(UNIT_SQ, 16)
        calls = self._count_solves(monkeypatch)
        assert principal_eigenvalue(g, g.mask) == \
            principal_eigenvalue(g, g.mask)
        assert calls == [1, 1]

    def test_equal_pairs_that_do_not_alias(self, monkeypatch):
        g = build_grid(UNIT_SQ, 16)
        calls = self._count_solves(monkeypatch)
        with spectral._one_solve_per_problem():
            p, q = principal_eigenpair(g, g.mask), principal_eigenpair(
                g, g.mask)
            assert principal_eigenvalue(g, g.mask) == p.value
        assert calls == [1]
        assert p.value == q.value and np.array_equal(p.vector, q.vector)
        assert not np.shares_memory(p.vector, q.vector)
        p.vector[:] = 0.0
        assert np.all(q.vector[g.mask] > 0)

    def test_translated_mask_is_the_same_problem(self, monkeypatch):
        # two balls the lattice maps onto each other have equal packed
        # matrices: one solve, the same packed vector at each ball's nodes
        g = build_grid(DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), 32)
        m_a = mask_from_shape(g, SetShape.ball((0.5, 0.5), 0.3))
        m_b = mask_from_shape(g, SetShape.ball((1.5, 1.5), 0.3))
        fresh = principal_eigenpair(g, m_b)
        calls = self._count_solves(monkeypatch)
        with spectral._one_solve_per_problem():
            a, b = principal_eigenpair(g, m_a), principal_eigenpair(g, m_b)
        assert calls == [1]
        assert b.value == fresh.value
        assert np.array_equal(b.vector, fresh.vector)
        assert np.array_equal(a.vector[m_a], b.vector[m_b])

    def test_scope_ends_with_the_block(self, monkeypatch):
        g = build_grid(UNIT_SQ, 16)
        calls = self._count_solves(monkeypatch)
        with spectral._one_solve_per_problem():
            principal_eigenvalue(g, g.mask)
            with spectral._one_solve_per_problem():
                principal_eigenvalue(g, g.mask)
            principal_eigenvalue(g, g.mask)
        principal_eigenvalue(g, g.mask)
        assert calls == [1, 1, 1]
        assert spectral._SOLVED.get() is None

    def test_only_the_pair_is_kept(self):
        # a float and the packed vector, read-only; no factor is kept
        g = build_grid(UNIT_SQ, 16)
        with spectral._one_solve_per_problem():
            principal_eigenvalue(g, g.mask)
            (lam, vec), = spectral._SOLVED.get().values()
        assert type(lam) is float
        assert vec.shape == (np.count_nonzero(g.mask),)
        assert not vec.flags.writeable


def linear_evolve(a: sp.csr_matrix, v0: np.ndarray, t: float,
                  lam: float = 0.0) -> np.ndarray:
    """Reference exact-in-time linear flow exp(t (lam I - A)) v0 for a
    mask's packed Dirichlet matrix A."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return v0.copy()
    gen = sp.identity(a.shape[0], format="csr") * lam - a
    return spla.expm_multiply(gen * t, v0)


class TestLinearEvolve:
    def test_principal_mode_decay(self):
        g = build_grid(UNIT_SQ, 32)
        pair = principal_eigenpair(g, g.mask, tol=1e-12)
        v0 = pair.vector[g.mask]
        t, lam = 0.1, 3.0
        v = linear_evolve(dirichlet_matrix(g, g.mask), v0, t, lam=lam)
        assert np.allclose(v, math.exp((lam - pair.value) * t) * v0,
                           rtol=1e-7, atol=1e-12)

    def test_zero_time_identity(self):
        g = build_grid(UNIT_SQ, 16)
        a = dirichlet_matrix(g, g.mask)
        v0 = np.linspace(0.0, 1.0, a.shape[0])
        assert np.array_equal(linear_evolve(a, v0, 0.0), v0)

    def test_negative_time_rejected(self):
        g = build_grid(UNIT_SQ, 16)
        a = dirichlet_matrix(g, g.mask)
        with pytest.raises(ValueError):
            linear_evolve(a, np.ones(a.shape[0]), -1.0)


class TestLambda0Estimate:
    def test_is_finite_property(self):
        est = Lambda0Estimate(deltas=(0.1,), values=(1.0,), verdict="finite",
                              value=1.0)
        assert est.is_finite
        inf = Lambda0Estimate(deltas=(0.1,), values=(1e9,), verdict="infinite",
                              value=math.inf)
        assert not inf.is_finite
