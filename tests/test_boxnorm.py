import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.boxnorm import (
    _box_norms,
    _check_peel,
    _root_with_clamp,
    _walked_axes,
    bilinear_bound_report,
    box_norm,
    box_power_direct,
    gcs_certificate,
    gcs_form,
    lp_box_norm,
    require_even,
)
from boxlab.errors import (
    NotDoubleton,
    NumericalInconsistency,
    OddEll,
    ShapeMismatch,
    SizeCapExceeded,
)
from boxlab.spaces import BLOCK_CELLS, INF, Exponent, Grid, edge_function, make_system

from oracles import box_power_brute, gcs_form_brute


def uniform_system(sizes, edges):
    return make_system([np.ones(z) / z for z in sizes], edges)


# -- strategies -------------------------------------------------------------

small_tensor_case = st.integers(min_value=0, max_value=2**31 - 1)


def random_case(seed, max_k=2, max_atoms=3, signed=True):
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = int(rng.integers(1, max_k + 1))
    sizes = [int(rng.integers(1, max_atoms + 1)) for _ in range(k)]
    weights = [rng.uniform(0.1, 1.0, size=z) for z in sizes]
    sys_ = make_system(weights, [tuple(range(k))])
    lo = -1.0 if signed else 0.0
    vals = rng.uniform(lo, 1.0, size=tuple(sizes))
    f = edge_function(sys_, tuple(range(k)), vals)
    return sys_, tuple(range(k)), f


class TestRequireEven:
    def test_accepts_even_ints(self):
        assert require_even(2) == 2
        assert require_even(np.int64(4)) == 4

    @pytest.mark.parametrize("bad", [1, 3, 0, -2, 2.0, "2"])
    def test_rejects(self, bad):
        with pytest.raises(OddEll):
            require_even(bad)


class TestRootWithClamp:
    def test_plain_root(self):
        v, clamped = _root_with_clamp(16.0, 4, 100.0)
        assert math.isclose(v, 2.0, rel_tol=1e-15)
        assert not clamped

    def test_tiny_negative_clamps(self):
        v, clamped = _root_with_clamp(-0.5e-9, 4, 1.0)
        assert v == 0.0 and clamped

    def test_bad_negative_raises(self):
        with pytest.raises(NumericalInconsistency):
            _root_with_clamp(-2e-9, 4, 1.0)

    def test_zero(self):
        assert _root_with_clamp(0.0, 4, 1.0) == (0.0, False)


class TestBoxPowerHandValues:
    def test_1d_is_plain_mean_power(self):
        sys_ = uniform_system([2], [(0,)])
        f = edge_function(sys_, (0,), [2.0, 4.0])
        res = box_norm(sys_, (0,), f, 2)
        assert math.isclose(res.power, 9.0, rel_tol=1e-14)
        assert math.isclose(res.value, 3.0, rel_tol=1e-14)

    def test_1d_signed_cancellation(self):
        sys_ = make_system([[1.0, 3.0]], [(0,)])
        f = edge_function(sys_, (0,), [3.0, -1.0])
        # mean = 0.25*3 - 0.75 = 0, so the squared mean is 0.
        res = box_norm(sys_, (0,), f, 2)
        assert res.value == 0.0

    def test_2x2_gram_hand_value(self):
        # Row Gram of [[1,1],[1,-1]] is diag(2,2)/2 -> power 1/2, norm 2^-1/4.
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[1.0, 1.0], [1.0, -1.0]])
        for method in ("recursive", "direct"):
            res = box_norm(sys_, (0, 1), f, 2, method=method)
            assert math.isclose(res.power, 0.5, rel_tol=1e-13)
            assert math.isclose(res.value, 0.5 ** 0.25, rel_tol=1e-13)

    def test_constant_has_norm_c(self):
        sys_ = uniform_system([3, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.full((3, 2), 1.7))
        assert math.isclose(box_norm(sys_, (0, 1), f, 4).value, 1.7, rel_tol=1e-12)


class TestAgainstBruteOracle:
    @given(small_tensor_case)
    def test_direct_matches_brute(self, seed):
        sys_, e, f = random_case(seed)
        want = box_power_brute(sys_, e, f.values, 2)
        got = box_power_direct(sys_, e, f, 2)
        scale = max(abs(want), abs(got), float(np.max(np.abs(f.values))) ** (2 ** len(e)))
        assert abs(want - got) <= 1e-9 * max(scale, 1e-300)

    @given(small_tensor_case)
    def test_recursive_matches_brute(self, seed):
        sys_, e, f = random_case(seed)
        want = box_power_brute(sys_, e, f.values, 2)
        got = box_norm(sys_, e, f, 2).power
        scale = max(abs(want), abs(got), float(np.max(np.abs(f.values))) ** (2 ** len(e)))
        assert abs(want - got) <= 1e-9 * max(scale, 1e-300)

    @given(small_tensor_case)
    @settings(max_examples=15)
    def test_ell4_routes_agree(self, seed):
        sys_, e, f = random_case(seed, max_atoms=2)
        a = box_norm(sys_, e, f, 4, method="recursive").power
        b = box_norm(sys_, e, f, 4, method="direct").power
        scale = max(abs(a), abs(b), float(np.max(np.abs(f.values))) ** (4 ** len(e)))
        assert abs(a - b) <= 1e-9 * max(scale, 1e-300)


class TestBoxNormValidation:
    def test_wrong_edge(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            box_norm(sys_, (0,), f, 2)

    def test_unknown_method(self):
        sys_ = uniform_system([2], [(0,)])
        f = edge_function(sys_, (0,), [1.0, 1.0])
        with pytest.raises(ShapeMismatch):
            box_norm(sys_, (0,), f, 2, method="magic")

    def test_direct_cap(self):
        # 4**8 * 4**8 = 2**32 replicated cells, above the grid cell cap.
        sys_ = uniform_system([4, 4], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((4, 4)))
        with pytest.raises(SizeCapExceeded):
            box_power_direct(sys_, (0, 1), f, 8)


class TestNormAxioms:
    @given(small_tensor_case)
    def test_triangle_and_homogeneity(self, seed):
        sys_, e, f = random_case(seed)
        rng = np.random.Generator(np.random.Philox(key=seed + 1))
        g_vals = rng.uniform(-1.0, 1.0, size=f.values.shape)
        g = edge_function(sys_, e, g_vals)
        fg = edge_function(sys_, e, f.values + g_vals)
        nf = box_norm(sys_, e, f, 2).value
        ng = box_norm(sys_, e, g, 2).value
        nfg = box_norm(sys_, e, fg, 2).value
        assert nfg <= nf + ng + 1e-9 * max(1.0, nf + ng)
        scaled = edge_function(sys_, e, -2.5 * f.values)
        assert math.isclose(
            box_norm(sys_, e, scaled, 2).value, 2.5 * nf,
            rel_tol=1e-9, abs_tol=1e-12,
        )

    @given(small_tensor_case)
    def test_ell_monotone(self, seed):
        sys_, e, f = random_case(seed, max_atoms=2)
        lo = box_norm(sys_, e, f, 2).value
        hi = box_norm(sys_, e, f, 4).value
        assert lo <= hi + 1e-9 * max(1.0, hi)

    def test_definiteness_on_uniform_space(self):
        sys_ = uniform_system([3, 3], [(0, 1)])
        rng = np.random.Generator(np.random.Philox(key=7))
        vals = rng.uniform(0.2, 1.0, size=(3, 3))
        f = edge_function(sys_, (0, 1), vals)
        assert box_norm(sys_, (0, 1), f, 2).value > 0.0
        zero = edge_function(sys_, (0, 1), np.zeros((3, 3)))
        assert box_norm(sys_, (0, 1), zero, 2).value == 0.0


class TestGcs:
    def test_empty_family_is_one(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        assert math.isclose(gcs_form(sys_, (0, 1), {}, 2), 1.0, rel_tol=1e-15)

    @given(small_tensor_case)
    @settings(max_examples=20)
    def test_matches_brute(self, seed):
        sys_, e, f = random_case(seed, max_k=2, max_atoms=2)
        rng = np.random.Generator(np.random.Philox(key=seed + 2))
        family = {}
        import itertools

        for digits in itertools.product(range(2), repeat=len(e)):
            if rng.uniform() < 0.7:
                vals = rng.uniform(-1.0, 1.0, size=f.values.shape)
                family[digits] = edge_function(sys_, e, vals)
        want = gcs_form_brute(sys_, e, family, 2)
        got = gcs_form(sys_, e, family, 2)
        assert abs(want - got) <= 1e-9 * max(abs(want), abs(got), 1.0)

    def test_all_equal_family_is_box_power(self):
        sys_ = uniform_system([2, 3], [(0, 1)])
        rng = np.random.Generator(np.random.Philox(key=5))
        f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 3)))
        import itertools

        fam = {d: f for d in itertools.product(range(2), repeat=2)}
        power = box_norm(sys_, (0, 1), f, 2).power
        assert math.isclose(gcs_form(sys_, (0, 1), fam, 2), power, rel_tol=1e-11)

    @given(
        st.integers(1, 3),
        st.sampled_from([2, 4, 6]),
        st.lists(st.integers(1, 3), min_size=3, max_size=3),
        st.sampled_from(["shared", "distinct", "sparse"]),
        small_tensor_case,
    )
    @settings(max_examples=40)
    def test_matches_brute_property(self, k, ell, atoms, kind, seed):
        # Atom counts shrink until the brute force's cells times patterns fit.
        atoms = atoms[:k]
        while math.prod(a**ell for a in atoms) * ell**k > 40_000:
            atoms[atoms.index(max(atoms))] -= 1
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = make_system([rng.uniform(0.1, 1.0, size=a) for a in atoms], [])
        e = tuple(range(k))
        shared = edge_function(sys_, e, rng.uniform(-2.0, 2.0, size=atoms))
        family = {}
        for d in itertools.product(range(ell), repeat=k):
            if kind == "shared":
                family[d] = shared
            elif kind == "distinct" or rng.uniform() < 0.5:
                family[d] = edge_function(sys_, e, rng.uniform(-2.0, 2.0, size=atoms))
        scale = math.prod(float(np.max(np.abs(fn.values))) for fn in family.values())
        got = gcs_form(sys_, e, family, ell)
        assert abs(got - gcs_form_brute(sys_, e, family, ell)) <= 1e-12 * scale

    def test_bad_digit_pattern(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            gcs_form(sys_, (0, 1), {(0, 2): f}, 2)
        with pytest.raises(ShapeMismatch):
            gcs_form(sys_, (0, 1), {(0,): f}, 2)

    @given(small_tensor_case)
    @settings(max_examples=20)
    def test_certificate_holds(self, seed):
        sys_, e, f = random_case(seed, max_k=2, max_atoms=2)
        rng = np.random.Generator(np.random.Philox(key=seed + 3))
        import itertools

        family = {
            d: edge_function(sys_, e, rng.uniform(-1, 1, size=f.values.shape))
            for d in itertools.product(range(2), repeat=len(e))
        }
        cert = gcs_certificate(sys_, e, family, 2)
        assert cert.holds
        assert cert.lhs <= cert.rhs + cert.tol

    def test_certificate_equality_when_identical(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        rng = np.random.Generator(np.random.Philox(key=9))
        f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 2)))
        import itertools

        fam = {d: f for d in itertools.product(range(2), repeat=2)}
        cert = gcs_certificate(sys_, (0, 1), fam, 2)
        assert cert.holds
        assert abs(cert.lhs - cert.rhs) <= 1e-9 * max(1.0, cert.rhs)


class TestLpBoxNorm:
    def test_inf_is_sup(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[1.0, -5.0], [0.5, 2.0]])
        assert lp_box_norm(sys_, (0, 1), f, 2, INF) == 5.0

    def test_constant(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.full((2, 2), 3.0))
        assert math.isclose(
            lp_box_norm(sys_, (0, 1), f, 2, Exponent(2.0)), 3.0, rel_tol=1e-12
        )

    def test_zero(self):
        sys_ = uniform_system([2], [(0,)])
        f = edge_function(sys_, (0,), [0.0, 0.0])
        assert lp_box_norm(sys_, (0,), f, 2, Exponent(2.0)) == 0.0

    @given(small_tensor_case)
    @settings(max_examples=20)
    def test_p_ladder_monotone(self, seed):
        sys_, e, f = random_case(seed)
        prev = 0.0
        for p in (1.0, 2.0, 4.0, 16.0):
            cur = lp_box_norm(sys_, e, f, 2, Exponent(p))
            assert prev <= cur + 1e-9 * max(1.0, cur)
            prev = cur
        sup = lp_box_norm(sys_, e, f, 2, INF)
        assert prev <= sup + 1e-9 * max(1.0, sup)

    def test_huge_p_approaches_sup(self):
        sys_ = uniform_system([3], [(0,)])
        f = edge_function(sys_, (0,), [0.1, 4.0, 2.0])
        v = lp_box_norm(sys_, (0,), f, 2, Exponent(float(1 << 20)))
        assert 0.999 * 4.0 <= v <= 4.0 + 1e-9


class TestBilinearBound:
    def test_needs_doubleton(self):
        sys_ = uniform_system([2], [(0,)])
        f = edge_function(sys_, (0,), [1.0, 1.0])
        with pytest.raises(NotDoubleton):
            bilinear_bound_report(sys_, (0,), f, f, f, 2, Exponent(2.0))

    def test_side_tensor_edges_checked(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        u = edge_function(sys_, (0,), [1.0, 1.0])
        with pytest.raises(ShapeMismatch):
            bilinear_bound_report(sys_, (0, 1), f, u, u, 2, Exponent(2.0))

    @given(small_tensor_case)
    @settings(max_examples=20)
    def test_holds_and_matches_manual_lhs(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        z0, z1 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys_ = make_system(
            [rng.uniform(0.1, 1, size=z0), rng.uniform(0.1, 1, size=z1)], [(0, 1)]
        )
        f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(z0, z1)))
        u = edge_function(sys_, (0,), rng.uniform(-1, 1, size=z0))
        v = edge_function(sys_, (1,), rng.uniform(-1, 1, size=z1))
        rep = bilinear_bound_report(sys_, (0, 1), f, u, v, 2, Exponent(2.0))
        lhs = 0.0
        for x in range(z0):
            for y in range(z1):
                lhs += (
                    float(sys_.spaces[0].weights[x])
                    * float(sys_.spaces[1].weights[y])
                    * f.values[x, y] * u.values[x] * v.values[y]
                )
        assert math.isclose(rep.lhs, abs(lhs), rel_tol=1e-10, abs_tol=1e-13)
        assert rep.holds
        assert rep.hypotheses["ell_at_least_conjugate"]

    def test_small_ell_flagged_not_raised(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        u = edge_function(sys_, (0,), [1.0, 1.0])
        v = edge_function(sys_, (1,), [1.0, 1.0])
        # p = 4/3 has conjugate 4 > ell = 2.
        rep = bilinear_bound_report(sys_, (0, 1), f, u, v, 2, Exponent(4.0 / 3.0))
        assert rep.hypotheses["ell_at_least_conjugate"] is False


def _weighted_case(atoms, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=z) for z in atoms], [])
    e = tuple(range(len(atoms)))
    return sys_, e, rng


def _materialised_form(sys_, e, family, ell):
    grid = Grid(sys_, [(v, m) for v in e for m in range(ell)])
    factors = [
        grid.lift(e, family[d].values, d)
        for d in itertools.product(range(ell), repeat=len(e))
        if d in family
    ]
    return float(np.sum(np.ascontiguousarray(grid.product(factors))))


class TestStreamedGrid:
    """The direct and gcs routes against the fully materialised grid."""

    @pytest.mark.parametrize(
        "atoms,ell", [((2, 3, 4), 4), ((3, 3, 3), 4), ((4, 2, 3), 4), ((2, 3, 4, 4, 4), 2)]
    )
    def test_direct_beyond_block(self, atoms, ell):
        sys_, e, rng = _weighted_case(atoms, seed=sum(atoms) + ell)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=atoms))
        family = {d: f for d in itertools.product(range(ell), repeat=len(e))}
        want = _materialised_form(sys_, e, family, ell)
        got = box_power_direct(sys_, e, f, ell)
        scale = float(np.max(np.abs(f.values))) ** (ell ** len(e))
        assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("atoms,ell", [((2, 3, 4), 4), ((2, 3, 4, 4, 4), 2)])
    def test_gcs_missing_patterns_beyond_block(self, atoms, ell):
        sys_, e, rng = _weighted_case(atoms, seed=3 * sum(atoms) + ell)
        family, scale = {}, 1.0
        for d in itertools.product(range(ell), repeat=len(e)):
            if rng.uniform() < 0.7:
                vals = rng.uniform(-1.0, 1.0, size=atoms)
                family[d] = edge_function(sys_, e, vals)
                scale *= float(np.max(np.abs(vals)))
        assert 0 < len(family) < ell ** len(e)
        want = _materialised_form(sys_, e, family, ell)
        got = gcs_form(sys_, e, family, ell)
        assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("atoms,ell", [((4, 4), 4), ((2, 2, 4), 4), ((2, 3, 4), 2)])
    def test_bit_identical_at_or_below_block(self, atoms, ell):
        sys_, e, rng = _weighted_case(atoms, seed=11)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=atoms))
        family = {d: f for d in itertools.product(range(ell), repeat=len(e))}
        assert box_power_direct(sys_, e, f, ell) == _materialised_form(sys_, e, family, ell)
        del family[(1,) * len(e)]
        # gcs eliminates replicas instead of summing the grid: equal up to roundoff.
        got = gcs_form(sys_, e, family, ell)
        scale = float(np.max(np.abs(f.values))) ** len(family)
        assert abs(got - _materialised_form(sys_, e, family, ell)) <= 1e-12 * scale
        assert abs(got - gcs_form_brute(sys_, e, family, ell)) <= 1e-12 * scale

    @pytest.mark.parametrize("atoms,ell,walked", [((4, 4, 4), 4, 2), ((2,) * 10, 2, 4)])
    def test_gcs_walks_past_one_block(self, atoms, ell, walked):
        # Distinct factors on every pattern but one: tables past one block,
        # so the leading replica axes are walked (two of the first 4**12 one).
        sys_, e, rng = _weighted_case(atoms, seed=len(atoms) + ell)
        others = list(atoms[:-1])
        assert _walked_axes(others, atoms[-1], ell, ell) == walked
        family, scale = {}, 1.0
        for d in itertools.product(range(ell), repeat=len(e)):
            if d != (0,) * len(e):
                vals = rng.uniform(-1.0, 1.0, size=atoms)
                family[d] = edge_function(sys_, e, vals)
                scale *= float(np.max(np.abs(vals)))
        grid = Grid(sys_, [(v, m) for v in e for m in range(ell)])
        want = grid.expect([grid.lift(e, fn.values, d) for d, fn in family.items()])
        tracemalloc.start()
        try:
            got = gcs_form(sys_, e, family, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-12 * scale
        # The stacked patterns, as large as the family itself, products of
        # their slabs while walking, and a few tables of one block.
        stack = len(family) * math.prod(atoms)
        assert peak < 8 * (2 * stack + 4 * BLOCK_CELLS)

    @pytest.mark.parametrize("route", ["direct", "gcs"])
    def test_peak_memory_on_largest_rung(self, route):
        # 4**12 cells: the materialised product alone would take 134 MB.
        sys_, e, rng = _weighted_case((4, 4, 4), seed=2)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=(4, 4, 4)))
        family = {d: f for d in itertools.product(range(4), repeat=3)}
        tracemalloc.start()
        try:
            if route == "direct":
                box_power_direct(sys_, e, f, 4)
            else:
                gcs_form(sys_, e, family, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSharedWork:
    def test_certificate_norms_each_distinct_factor_once(self, monkeypatch):
        import boxlab.boxnorm as bn

        sys_ = uniform_system([2, 3], [(0, 1)])
        rng = np.random.Generator(np.random.Philox(key=4))
        f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 3)))
        g = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 3)))
        fam = {d: f for d in itertools.product(range(2), repeat=2)}
        fam[(1, 1)] = g
        want = gcs_certificate(sys_, (0, 1), fam, 2)
        stacks = []
        original = bn._box_norms

        def spy(rows, ell):
            rows = list(rows)
            stacks.append([values for _, _, values in rows])
            return original(rows, ell)

        monkeypatch.setattr(bn, "_box_norms", spy)
        got = gcs_certificate(sys_, (0, 1), fam, 2)
        # One stack whose rows are the distinct factors, in first-use order.
        assert len(stacks) == 1 and [id(v) for v in stacks[0]] == [id(f.values), id(g.values)]
        assert got == want


def _loop_power(system, e, values, ell):
    """The recursive box power as one call per multiset of peeled atoms.

    The per-multiset loop that the batched peel replaced, kept as the
    reference for its arithmetic: the batched peel must give the same float.
    """
    if len(e) == 1:
        w = system.spaces[e[0]].weights
        return float(np.sum(np.ascontiguousarray(w * values))) ** ell
    w = system.spaces[e[-1]].weights
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(w.shape[0]), ell):
        coeff = math.factorial(ell)
        weight = 1.0
        prod = None
        for t, c in sorted(Counter(combo).items()):
            coeff //= math.factorial(c)
            weight *= float(w[t]) ** c
            piece = values[..., t] if c == 1 else values[..., t] ** c
            prod = piece if prod is None else prod * piece
        total += (coeff * weight) * _loop_power(system, e[:-1], prod, ell)
    return total


def _loop_work(sizes, ell):
    """Tensors the loop visits: one per multiset of each peeled coordinate."""
    return math.prod(math.comb(z + ell - 1, ell) for z in sizes[1:])


def _brute_work(sizes, ell):
    """Products the brute-force oracle multiplies."""
    return math.prod(z**ell for z in sizes) * ell ** len(sizes)


@st.composite
def peel_case(draw, k, ell, work, budget):
    sizes = [draw(st.integers(1, 10)) for _ in range(k)]
    # Shrink the largest coordinate that `work` counts until the case is cheap.
    counted = range(1 if work is _loop_work else 0, k)
    while work(sizes, ell) > budget:
        sizes[max(counted, key=sizes.__getitem__)] -= 1
    sys_, e, rng = _weighted_case(sizes, draw(st.integers(0, 2**31 - 1)))
    return sys_, e, edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=sizes))


class TestBatchedPeel:
    """The batched recursive peel against the per-multiset loop, bit for bit."""

    @pytest.mark.parametrize("ell", [2, 4, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=8)
    def test_equals_loop(self, k, ell, data):
        sys_, e, f = data.draw(peel_case(k, ell, _loop_work, 2000))
        got = _box_norms([(sys_, e, f.values)], ell)[0].power
        assert type(got) is float
        assert got == _loop_power(sys_, e, f.values, ell)

    @pytest.mark.parametrize("ell", [2, 4, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=4)
    def test_matches_brute_where_cheap(self, k, ell, data):
        sys_, e, f = data.draw(peel_case(k, ell, _brute_work, 20000))
        want = box_power_brute(sys_, e, f.values, ell)
        got = _box_norms([(sys_, e, f.values)], ell)[0].power
        assert abs(want - got) <= 1e-9 * max(abs(want), 1.0)

    @pytest.mark.parametrize(
        "sizes,ell",
        [((3, 1), 2), ((1, 1), 4), ((2, 1, 3), 4), ((4, 1, 1), 2), ((1, 1, 1, 1), 6)],
    )
    def test_one_atom_coordinates(self, sizes, ell):
        sys_, e, rng = _weighted_case(sizes, seed=7)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=sizes))
        got = _box_norms([(sys_, e, f.values)], ell)[0].power
        assert got == _loop_power(sys_, e, f.values, ell)
        assert abs(got - box_power_brute(sys_, e, f.values, ell)) <= 1e-12

    @pytest.mark.parametrize("ell", [2, 4, 6])
    @given(data=st.data())
    @settings(max_examples=25)
    def test_one_atom_coordinates_property(self, ell, data):
        # Peeling a one-atom coordinate takes the fast path: X ** ell and one
        # fold term, the same floats as the batched peel's single multiset.
        k = data.draw(st.integers(2, 4))
        sizes = [data.draw(st.integers(1, 5)) for _ in range(k)]
        for j in data.draw(st.sets(st.integers(1, k - 1), min_size=1)):
            sizes[j] = 1
        while _loop_work(sizes, ell) > 2000:
            sizes[max(range(k), key=sizes.__getitem__)] -= 1
        sys_, e, rng = _weighted_case(sizes, data.draw(st.integers(0, 2**31 - 1)))
        values = rng.uniform(-1.0, 1.0, size=sizes)
        if data.draw(st.booleans()):
            values[rng.random(sizes) < 0.5] = 0.0
        f = edge_function(sys_, e, values)
        got = _box_norms([(sys_, e, f.values)], ell)[0].power
        assert got == _loop_power(sys_, e, f.values, ell)
        assert math.copysign(1.0, got) == math.copysign(1.0, _loop_power(sys_, e, f.values, ell))

    @pytest.mark.parametrize("sizes,ell", [((3, 2), 2), ((2, 3, 2), 4), ((9, 3), 6)])
    def test_zero_and_all_negative(self, sizes, ell):
        sys_, e, rng = _weighted_case(sizes, seed=8)
        zero = np.zeros(sizes)
        got = _box_norms([(sys_, e, zero)], ell)[0].power
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        neg = -rng.uniform(0.1, 1.0, size=sizes)
        got = _box_norms([(sys_, e, neg)], ell)[0].power
        assert got == _loop_power(sys_, e, neg, ell) > 0.0

    @pytest.mark.parametrize("sizes", [(3, 3), (8, 2, 2), (2, 3, 2)])
    def test_ell6(self, sizes):
        sys_, e, rng = _weighted_case(sizes, seed=9)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=sizes))
        assert _box_norms([(sys_, e, f.values)], 6)[0].power == _loop_power(sys_, e, f.values, 6)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_split_changes_nothing(self, block, monkeypatch):
        import boxlab.boxnorm as bn

        sys_, e, rng = _weighted_case((3, 4, 3), seed=10)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=(3, 4, 3)))
        want = _loop_power(sys_, e, f.values, 4)
        monkeypatch.setattr(bn, "BLOCK_CELLS", block)
        assert _box_norms([(sys_, e, f.values)], 4)[0].power == want

    def test_peak_memory_past_one_block(self):
        # Peeling the last two coordinates of a 3-edge with 8 atoms at ell=4
        # makes 330 * 330 tensors of 8 cells: 13.3 blocks, 7 MB in one array.
        sys_, e, rng = _weighted_case((8, 8, 8), seed=11)
        f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=(8, 8, 8)))
        assert 330 * 330 * 8 >= 4 * BLOCK_CELLS
        _box_norms([(sys_, (0, 1), f.values[:, :, 0])], 4)  # build the plan
        tracemalloc.start()
        try:
            got = _box_norms([(sys_, e, f.values)], 4)[0].power
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few arrays of one block (0.5 MB each) at a time.
        assert peak < 8 * 8 * BLOCK_CELLS
        assert got == _loop_power(sys_, e, f.values, 4)


def _loop_power_or_inf(system, e, values, ell):
    """`_loop_power`, with inf where a first-coordinate sum's power overflows."""
    try:
        return _loop_power(system, e, values, ell)
    except OverflowError:
        return math.inf


@st.composite
def stack_case(draw):
    """Rows of one shape and ell: systems with their own weights, some rows
    sharing one, zero rows and one row whose first-coordinate sums overflow."""
    ell = draw(st.sampled_from([2, 4, 6]))
    k = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    while _loop_work(sizes, ell) > 300:
        sizes[max(range(k), key=sizes.__getitem__)] -= 1
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**31 - 1))))
    e = tuple(range(k))
    systems = [
        make_system([rng.uniform(0.1, 1.0, size=z) for z in sizes], [e])
        for _ in range(draw(st.integers(1, 3)))
    ]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        system = systems[draw(st.integers(0, len(systems) - 1))]
        zero = draw(st.booleans()) and draw(st.booleans())
        rows.append((system, e, np.zeros(sizes) if zero else rng.uniform(-1.0, 1.0, size=sizes)))
    # Every leaf cell of this row is 1e300, below the float range; its
    # first-coordinate sums are 1e300 too, and their ell-th power overflows.
    huge = np.full(sizes, 10.0 ** (300 / ell ** (k - 1)))
    rows.insert(draw(st.integers(0, len(rows))), (systems[-1], e, huge))
    return rows, ell


class TestStackedPeel:
    """`_box_norms` on a stack against one reference loop per row, bit for bit."""

    @given(case=stack_case())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_loop(self, case):
        import boxlab.boxnorm as bn

        rows, ell = case
        want = [_loop_power_or_inf(*row, ell) for row in rows]
        assert want.count(math.inf) == 1
        for block in (BLOCK_CELLS, 1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bn, "BLOCK_CELLS", block)
                got = bn._box_norms(rows, ell)
            assert [res.power for res in got] == want
            assert got == [bn._box_norms([row], ell)[0] for row in rows]

    def test_lp_stack_equals_calls(self):
        import boxlab.boxnorm as bn

        rng = np.random.Generator(np.random.Philox(key=12))
        rows = []
        for sizes in ((2, 3), (3, 3), (2, 3), (1,), (3, 1, 2)):
            sys_ = make_system([rng.uniform(0.1, 1.0, size=z) for z in sizes], [])
            e = tuple(range(len(sizes)))
            rows.append((sys_, e, rng.uniform(-1.0, 1.0, size=sizes)))
        rows.append((rows[0][0], rows[0][1], np.zeros((2, 3))))
        ps = [Exponent(1.0), INF, Exponent(3.5), Exponent(2.0**20)]
        for ell in (2, 4):
            got = bn._lp_box_norms(rows, ell, ps)
            for p, norms in zip(ps, got):
                want = [lp_box_norm(s, e, edge_function(s, e, v), ell, p) for s, e, v in rows]
                assert norms == want

    def test_refused_shape_peels_nothing(self, monkeypatch):
        import boxlab.boxnorm as bn

        sys_ = uniform_system([2, 3, 6, 7], [])
        ok = (sys_, (0, 1), np.ones((2, 3)))
        refused = (sys_, (0, 2), np.ones((2, 6)))
        also_refused = (sys_, (0, 3), np.ones((2, 7)))
        monkeypatch.setattr(bn, "GRID_CELL_CAP", 30)
        bn._check_peel.cache_clear()
        try:
            bn._check_peel((2, 3), 2)
            for shape in ((2, 6), (2, 7)):
                with pytest.raises(SizeCapExceeded):
                    bn._check_peel(shape, 2)
            # One weight table is built per peeled batch.
            seen = []
            levels = bn._levels
            monkeypatch.setattr(bn, "_levels", lambda *a: seen.append("peel") or levels(*a))
            # The first refused row in row order raises, and nothing is peeled,
            # not even the row before it.
            with pytest.raises(SizeCapExceeded, match="peeling 6 atoms"):
                bn._box_norms([ok, refused, ok, also_refused], 2)
            with pytest.raises(SizeCapExceeded, match="peeling 7 atoms"):
                bn._box_norms([ok, also_refused, refused], 2)
            assert seen == []
            assert len(bn._box_norms([ok, ok], 2)) == 2 and seen == ["peel"]
        finally:
            bn._check_peel.cache_clear()


class TestPeelGuard:
    """Peels that cannot run are refused before anything is allocated.

    Each case first checks `_check_peel` alone, so that the peel itself
    only runs once the refusal is known to come first.
    """

    def _refused(self, sys_, e, f, ell, match):
        with pytest.raises(SizeCapExceeded, match=match):
            _check_peel(sys_.edge_shape(e), ell)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded, match=match):
                box_norm(sys_, e, f, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("ell", [1102, 2002, 20_000_002])
    def test_coefficients_past_float_range(self, ell):
        # binom(1102, 551) > 2**1024: the 2-atom plan has no float coefficients.
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[1.0, -0.5], [0.25, 2.0]])
        self._refused(sys_, (0, 1), f, ell, "overflow a float")

    def test_largest_float_coefficient_accepted(self):
        # binom(1020, 510) < 2**1024 < binom(1030, 515).
        _check_peel((1, 2), 1020)
        with pytest.raises(SizeCapExceeded):
            _check_peel((1, 2), 1030)

    def test_cell_cap(self, monkeypatch):
        import boxlab.boxnorm as bn

        monkeypatch.setattr(bn, "GRID_CELL_CAP", 100)
        _check_peel.cache_clear()
        try:
            sys_ = uniform_system([3, 4], [(0, 1)])
            f = edge_function(sys_, (0, 1), np.ones((3, 4)))
            # 35 multisets of 4 atoms out of 4, each a tensor of 3 cells.
            self._refused(sys_, (0, 1), f, 4, "cell cap")
        finally:
            _check_peel.cache_clear()

    def test_one_atom_coordinates_need_no_plan(self):
        sys_ = uniform_system([2, 1], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[0.5], [0.25]])
        _check_peel((2, 1), 20_000_002)
        assert _box_norms([(sys_, (0, 1), f.values)], 20_000_002)[0].power == 0.0

    def test_overflowing_power_is_inf(self):
        # 2.0 ** 2002 is past the float range: the power is inf, not an
        # OverflowError.
        sys_ = uniform_system([2], [(0,)])
        f = edge_function(sys_, (0,), [2.0, 2.0])
        assert _box_norms([(sys_, (0,), f.values)], 2002)[0].power == math.inf
