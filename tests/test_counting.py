import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.boxnorm import lp_box_norm
from boxlab.counting import (
    counting_lemma_certificate,
    ell_von_neumann,
    full_assignment,
    lambda_form,
    least_even_at_least,
    product_lp_norm,
    von_neumann_certificate,
)
from boxlab.errors import (
    BadSpec,
    EmptyHypergraph,
    NotTwoUniform,
    PairCapExceeded,
    POutOfRange,
    ShapeMismatch,
    SubsetCapExceeded,
)
from boxlab.spaces import INF, Exponent, edge_function, lp_norm, make_system

from oracles import lambda_form_brute

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def triangle_system(rng, atoms=3, uniform=False):
    if uniform:
        weights = [np.ones(atoms) / atoms for _ in range(3)]
    else:
        weights = [rng.uniform(0.1, 1.0, size=atoms) for _ in range(3)]
    return make_system(weights, [(0, 1), (0, 2), (1, 2)])


def signed_family(system, rng, lo=-1.0, hi=1.0):
    return {
        e: edge_function(system, e, rng.uniform(lo, hi, size=system.edge_shape(e)))
        for e in system.edges
    }


def normalized_family(system, family, ell, p):
    out = {}
    for e, fn in family.items():
        norm = lp_box_norm(system, e, fn, ell, p)
        vals = fn.values / norm if norm > 1.0 else fn.values
        out[e] = edge_function(system, e, vals)
    return out


class TestFullAssignment:
    def test_accepts_list_and_dict(self):
        sys_ = make_system([[1.0, 1.0]] * 2, [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        assert full_assignment(sys_, [f]) == {(0, 1): f}
        assert full_assignment(sys_, {(0, 1): f}) == {(0, 1): f}

    def test_missing_and_extra(self):
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1), (1, 2)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            full_assignment(sys_, [f])
        g = edge_function(sys_, (0, 2), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            full_assignment(sys_, [f, g])

    def test_duplicate(self):
        sys_ = make_system([[1.0, 1.0]] * 2, [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            full_assignment(sys_, {(0, 1): f, (1, 0): f})

    def test_edgeless_system(self):
        sys_ = make_system([[1.0, 1.0]], [])
        with pytest.raises(EmptyHypergraph):
            full_assignment(sys_, {})


class TestLambdaForm:
    @given(seeds)
    def test_direct_matches_brute(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = triangle_system(rng)
        fam = signed_family(sys_, rng)
        want = lambda_form_brute(sys_, fam)
        got = lambda_form(sys_, fam)
        assert abs(want - got) <= 1e-11 * max(1.0, abs(want))

    def test_subset_and_empty(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng)
        fam = signed_family(sys_, rng)
        assert lambda_form(sys_, fam, edges=[]) == 1.0
        sub = lambda_form(sys_, fam, edges=[(0, 1)])
        want = lambda_form_brute(sys_, {(0, 1): fam[(0, 1)]})
        assert abs(sub - want) <= 1e-12 * max(1.0, abs(want))

    def test_unknown_edge_and_mode(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng)
        fam = signed_family(sys_, rng)
        with pytest.raises(ShapeMismatch):
            lambda_form(sys_, fam, edges=[(0, 3)])

    def test_mixed_arity_product(self):
        sys_ = make_system([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [(0,), (0, 1, 2)])
        rng = np.random.Generator(np.random.Philox(key=1))
        fam = {
            (0,): edge_function(sys_, (0,), rng.uniform(-1, 1, size=2)),
            (0, 1, 2): edge_function(sys_, (0, 1, 2), rng.uniform(-1, 1, size=(2, 2, 2))),
        }
        want = lambda_form_brute(sys_, fam)
        assert abs(lambda_form(sys_, fam) - want) <= 1e-12 * max(1.0, abs(want))


class TestReplicaRules:
    @pytest.mark.parametrize(
        "x,want",
        [
            (2.0, 2),
            (2.0 + 1e-10, 2),  # inside the tie window
            (2.1, 4),
            (4.0 / 3.0, 2),
            (0.5, 2),
            (3.999999999, 4),
            (4.0, 4),
            (5.0, 6),
        ],
    )
    def test_least_even(self, x, want):
        assert least_even_at_least(x) == want

    @pytest.mark.parametrize(
        "delta,p,want",
        [
            (1, 7.0, 2),
            (2, 2.0, 2),
            (3, 2.0, 4),
            (4, 2.0, 6),
            (5, 2.0, 8),
            (2, 4.0 / 3.0, 4),  # t/(t-1) = 4 exactly
            (3, float("inf"), 2),
        ],
    )
    def test_von_neumann_rule(self, delta, p, want):
        p_exp = INF if math.isinf(p) else Exponent(p)
        assert ell_von_neumann(delta, p_exp) == want

    def test_von_neumann_rule_errors(self):
        with pytest.raises(BadSpec):
            ell_von_neumann(0, Exponent(2.0))
        with pytest.raises(POutOfRange):
            ell_von_neumann(2, Exponent(1.0))


class TestProductLpNorm:
    def test_empty_is_one(self):
        sys_ = make_system([[1.0, 1.0]], [(0,)])
        assert product_lp_norm(sys_, [], Exponent(2.0)) == 1.0

    def test_single_matches_lp_norm(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        sys_ = triangle_system(rng)
        f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(3, 3)))
        for p in (Exponent(2.0), INF):
            assert math.isclose(
                product_lp_norm(sys_, [f], p),
                lp_norm(sys_, (0, 1), f, p),
                rel_tol=1e-12,
            )


class TestVonNeumannCertificate:
    def test_requires_two_uniform(self):
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1, 2)])
        f = edge_function(sys_, (0, 1, 2), np.ones((2, 2, 2)))
        with pytest.raises(NotTwoUniform):
            von_neumann_certificate(sys_, [f], 2.0, Exponent(2.0))

    def test_requires_c_at_least_one(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        with pytest.raises(BadSpec):
            von_neumann_certificate(sys_, fam, 0.5, Exponent(2.0))

    def test_subset_cap(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        with pytest.raises(SubsetCapExceeded):
            von_neumann_certificate(sys_, fam, 2.0, Exponent(2.0), subset_cap=4)

    @given(seeds)
    @settings(max_examples=15)
    def test_holds_on_normalized_instances(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = triangle_system(rng)
        p = Exponent(2.0)
        ell = ell_von_neumann(2, p)
        fam = normalized_family(sys_, signed_family(sys_, rng), ell, p)
        probe = von_neumann_certificate(sys_, fam, 1.0, p)
        c_use = max(1.0, probe.worst_subset_lp)
        cert = von_neumann_certificate(sys_, fam, c_use, p)
        assert cert.hyp_box_lp_ok
        assert cert.hyp_subset_lp_ok
        assert cert.holds
        assert cert.lhs <= cert.rhs + cert.tol
        assert cert.slack == cert.rhs - cert.lhs

    def test_hypothesis_flags_false_when_violated(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        sys_ = triangle_system(rng, uniform=True)
        fam = {
            e: edge_function(sys_, e, np.full(sys_.edge_shape(e), 10.0))
            for e in sys_.edges
        }
        cert = von_neumann_certificate(sys_, fam, 1.0, Exponent(2.0))
        assert not cert.hyp_box_lp_ok
        assert not cert.hyp_subset_lp_ok
        assert cert.worst_subset_lp > 1.0

    def test_to_dict_keys(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        d = von_neumann_certificate(sys_, fam, 2.0, Exponent(2.0)).to_dict()
        assert d["hypotheses"].keys() == {"box_lp_at_most_one", "subset_lp_at_most_C"}
        assert d["slack"] == d["rhs"] - d["lhs"]


class TestCountingCertificate:
    @given(seeds)
    @settings(max_examples=10)
    def test_holds_on_nearby_normalized_pairs(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = triangle_system(rng)
        p = Exponent(2.0)
        ell = ell_von_neumann(2, p)
        fam_f = normalized_family(sys_, signed_family(sys_, rng), ell, p)
        fam_g = {}
        for e, fn in fam_f.items():
            bump = 0.05 * rng.uniform(-1, 1, size=fn.values.shape)
            fam_g[e] = edge_function(sys_, e, np.clip(fn.values + bump, -1.0, 1.0))
        fam_g = normalized_family(sys_, fam_g, ell, p)
        probe = counting_lemma_certificate(sys_, fam_f, fam_g, 1.0, p)
        c_use = max(1.0, probe.worst_pair_lp)
        cert = counting_lemma_certificate(sys_, fam_f, fam_g, c_use, p)
        assert cert.hyp_box_lp_ok
        assert cert.hyp_pair_lp_ok
        assert cert.holds

    def test_identical_assignments_zero_lhs(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        cert = counting_lemma_certificate(sys_, fam, fam, 1.5, Exponent(2.0))
        assert cert.lhs == 0.0
        assert cert.rhs == 0.0
        assert cert.holds

    def test_pair_cap(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        with pytest.raises(PairCapExceeded):
            counting_lemma_certificate(
                sys_, fam, fam, 1.0, Exponent(2.0), pair_cap=9
            )

    def test_requires_two_uniform(self):
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1, 2)])
        f = edge_function(sys_, (0, 1, 2), np.ones((2, 2, 2)))
        with pytest.raises(NotTwoUniform):
            counting_lemma_certificate(sys_, [f], [f], 1.0, Exponent(2.0))
