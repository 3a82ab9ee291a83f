import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import counting
from boxlab.boxnorm import REL_TOL, box_norm, lp_box_norm
from boxlab.counting import (
    _product_norms,
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
    NumericalInconsistency,
    PairCapExceeded,
    POutOfRange,
    ShapeMismatch,
    SubsetCapExceeded,
)
from boxlab.spaces import INF, Exponent, constant_function, edge_function, lp_norm, make_system

from oracles import lambda_form_brute, product_lp_norm_brute

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
        for bad in (0.5, math.inf, math.nan):
            with pytest.raises(BadSpec):
                von_neumann_certificate(sys_, fam, bad, Exponent(2.0))
            with pytest.raises(BadSpec):
                counting_lemma_certificate(sys_, fam, fam, bad, Exponent(2.0))

    def test_subset_cap(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        with pytest.MonkeyPatch.context() as mp, pytest.raises(SubsetCapExceeded):
            mp.setattr(counting, "SUBSET_CAP", 4)
            von_neumann_certificate(sys_, fam, 2.0, Exponent(2.0))

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
        with pytest.MonkeyPatch.context() as mp, pytest.raises(PairCapExceeded):
            mp.setattr(counting, "PAIR_CAP", 9)
            counting_lemma_certificate(sys_, fam, fam, 1.0, Exponent(2.0))

    def test_requires_two_uniform(self):
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1, 2)])
        f = edge_function(sys_, (0, 1, 2), np.ones((2, 2, 2)))
        with pytest.raises(NotTwoUniform):
            counting_lemma_certificate(sys_, [f], [f], 1.0, Exponent(2.0))


def per_edge_norms(system, fam_f, fam_g, ell, p):
    """The certificates' edge norms by one public call per edge, in the order
    the per-edge loops took them: the reference for the stacked norms."""
    edges = system.edges
    box = {e: box_norm(system, e, fam_f[e], ell).value for e in edges}
    box_lp = {e: lp_box_norm(system, e, fam_f[e], ell, p) for e in edges}
    hyp_box = True
    for e in edges:
        if lp_box_norm(system, e, fam_f[e], ell, p) > 1.0 + REL_TOL:
            hyp_box = False
        if lp_box_norm(system, e, fam_g[e], ell, p) > 1.0 + REL_TOL:
            hyp_box = False
    diffs = {}
    for e in edges:
        d = edge_function(system, e, fam_f[e].values - fam_g[e].values)
        diffs[e] = box_norm(system, e, d, ell).value
    return box, box_lp, hyp_box, diffs


class TestStackedEdgeNorms:
    """The certificates take their edge norms in stacks, equal to per-edge calls."""

    @pytest.mark.parametrize("atoms", [(2, 2, 2, 2), (1, 2, 1, 3), (3, 1, 2, 2)])
    @pytest.mark.parametrize("p", [Exponent(1.0), Exponent(2.0), Exponent(3.5), INF], ids=repr)
    def test_equal_per_edge_calls(self, atoms, p):
        rng = np.random.Generator(np.random.Philox(key=sum(atoms)))
        edges = ENUM_SHAPES["K4"]
        sys_ = make_system([rng.uniform(0.2, 1.0, size=z) for z in atoms], edges)
        fam_f = signed_family(sys_, rng)
        fam_g = signed_family(sys_, rng, lo=-0.5, hi=0.5)
        # A zero tensor: its p-weighted norm is 0 without a box norm.
        fam_g[edges[1]] = edge_function(sys_, edges[1], np.zeros(sys_.edge_shape(edges[1])))
        for ell in (2, 4):
            box, box_lp, hyp_box, diffs = per_edge_norms(sys_, fam_f, fam_g, ell, p)
            vn = von_neumann_certificate(sys_, fam_f, 2.0, p, ell=ell)
            assert vn.box_norms == box and vn.box_lp_norms == box_lp
            cc = counting_lemma_certificate(sys_, fam_f, fam_g, 2.0, p, ell=ell)
            assert cc.diff_box_norms == diffs and cc.hyp_box_lp_ok == hyp_box


class TestNonFiniteCertificates:
    """Overflowing products, differences or forms raise NumericalInconsistency.

    The tier-1 configuration turns numpy RuntimeWarnings into errors, so these
    also check that no warning is printed.
    """

    def k4_big(self):
        sys_ = make_system([[1.0, 1.0]] * 4, ENUM_SHAPES["K4"])
        big = np.array([[1e60, 1.0], [1.0, 1.0]])
        return sys_, {e: edge_function(sys_, e, big) for e in sys_.edges}

    def test_overflowing_subset_product(self):
        sys_, fam = self.k4_big()
        with pytest.raises(NumericalInconsistency, match=r"von Neumann certificate: the L_p "
                           r"norm of the product over .* is inf, not finite \(p=2.0\)"):
            von_neumann_certificate(sys_, fam, 2.0, Exponent(2.0))

    def test_overflowing_pair_product(self):
        sys_, fam = self.k4_big()
        with pytest.raises(NumericalInconsistency, match=r"counting certificate: the L_p norm "
                           r"of the product over f on .* and g on \[\] is inf, not finite "
                           r"\(p=2.0\)"):
            counting_lemma_certificate(sys_, fam, fam, 2.0, Exponent(2.0))

    def test_overflowing_pair_of_opposite_signs(self):
        # f - g overflows too, but a pair norm comes first.
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1), (0, 2), (1, 2)])
        fam_f = {e: edge_function(sys_, e, [[1e308, 1.0], [1.0, 1.0]]) for e in sys_.edges}
        fam_g = {e: edge_function(sys_, e, [[-1e308, 1.0], [1.0, 1.0]]) for e in sys_.edges}
        with pytest.raises(NumericalInconsistency, match="counting certificate: the L_p norm"):
            counting_lemma_certificate(sys_, fam_f, fam_g, 2.0, Exponent(2.0))

    def test_overflowing_difference(self):
        # Only edge (0, 1) is large: every product, norm and form is finite.
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1), (0, 2), (1, 2)])
        ones = np.ones((2, 2))
        fam_f = {e: edge_function(sys_, e, ones) for e in sys_.edges}
        fam_g = dict(fam_f)
        fam_f[(0, 1)] = edge_function(sys_, (0, 1), [[1e308, 1.0], [1.0, 1.0]])
        fam_g[(0, 1)] = edge_function(sys_, (0, 1), [[-1e308, 1.0], [1.0, 1.0]])
        with pytest.raises(
            NumericalInconsistency,
            match=r"counting certificate: f - g on edge \[0, 1\] overflows, not finite \(p=inf\)",
        ):
            counting_lemma_certificate(sys_, fam_f, fam_g, 2.0, INF)

    def test_overflowing_triple_product(self):
        # Each product of two edges is finite; the product of all three is
        # not, so its norm is inf (an L_p norm of an overflowed product read 0).
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1), (0, 2), (1, 2)])
        fam = {e: edge_function(sys_, e, np.full((2, 2), 1e120)) for e in sys_.edges}
        for p in (Exponent(2.0), INF):
            with pytest.raises(NumericalInconsistency, match=r"over \[\[0, 1\], \[0, 2\], "
                               r"\[1, 2\]\] is inf"):
                von_neumann_certificate(sys_, fam, 2.0, p)

    def test_overflowing_counting_forms(self):
        # The forms of f and g are finite and of opposite signs near the
        # float range; their difference is not.
        sys_ = make_system([[1.0, 1.0]] * 3, [(0, 1), (0, 2), (1, 2)])
        ones = np.ones((2, 2))
        fam_f = {e: edge_function(sys_, e, ones) for e in sys_.edges}
        fam_g = dict(fam_f)
        fam_f[(0, 1)] = edge_function(sys_, (0, 1), np.full((2, 2), 1.7e308))
        fam_g[(0, 1)] = edge_function(sys_, (0, 1), np.full((2, 2), -1.7e308))
        with pytest.raises(
            NumericalInconsistency,
            match=r"counting certificate: the counting form of f minus that of g is inf",
        ):
            counting_lemma_certificate(sys_, fam_f, fam_g, 2.0, Exponent(2.0))

    def test_finite_results_unchanged(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        sys_ = triangle_system(rng)
        fam_f, fam_g = signed_family(sys_, rng), signed_family(sys_, rng)
        for p in (Exponent(2.0), INF):
            vn = von_neumann_certificate(sys_, fam_f, 2.0, p)
            assert (vn.worst_subset, vn.worst_subset_lp) == reference_worst_subset(sys_, fam_f, p)
            cc = counting_lemma_certificate(sys_, fam_f, fam_g, 2.0, p)
            want = reference_worst_pair(sys_, fam_f, fam_g, p)
            assert (cc.worst_pair, cc.worst_pair_lp) == want
            forms = lambda_form(sys_, fam_f) - lambda_form(sys_, fam_g)
            assert cc.lhs == abs(forms)


def choice_norm(system, funcs, p):
    """product_lp_norm of `funcs` padded with the constant one on every edge
    they leave out, so on the grid of every coordinate the edges touch; 1
    for no tensor."""
    if not funcs:
        return 1.0
    used = {f.edge for f in funcs}
    pad = [constant_function(system, e) for e in system.edges if e not in used]
    return product_lp_norm(system, list(funcs) + pad, p)


def reference_worst_subset(system, assign, p):
    """The von Neumann witness scan, one choice_norm per subset."""
    worst, witness = 1.0, ()
    for r in range(1, len(system.edges) + 1):
        for sub in itertools.combinations(system.edges, r):
            val = choice_norm(system, [assign[e] for e in sub], p)
            if val > worst:
                worst, witness = val, sub
    return witness, worst


def reference_worst_pair(system, assign_f, assign_g, p):
    """The counting witness scan, one choice_norm per disjoint pair."""
    worst, witness = 1.0, ((), ())
    for states in itertools.product(range(3), repeat=len(system.edges)):
        side_f = tuple(e for e, s in zip(system.edges, states) if s == 1)
        side_g = tuple(e for e, s in zip(system.edges, states) if s == 2)
        funcs = [assign_f[e] for e in side_f] + [assign_g[e] for e in side_g]
        val = choice_norm(system, funcs, p)
        if val > worst:
            worst, witness = val, (side_f, side_g)
    return witness, worst


def brute_worst(system, assign_f, assign_g, p):
    """Largest oracle norm over every disjoint pair (g side empty if no g)."""
    states = range(3) if assign_g is not None else range(2)
    best = 1.0
    for choice in itertools.product(states, repeat=len(system.edges)):
        funcs = [assign_f[e] for e, s in zip(system.edges, choice) if s == 1]
        funcs += [assign_g[e] for e, s in zip(system.edges, choice) if s == 2]
        best = max(best, product_lp_norm_brute(system, funcs, p.value))
    return best


ENUM_SHAPES = {
    "K3": [(0, 1), (0, 2), (1, 2)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "path": [(0, 1), (1, 2), (2, 3)],
}
ENUM_PS = [Exponent(1.0), Exponent(2.0), Exponent(3.5), Exponent(2.0**20), INF]


def assert_matches_reference(system, fam_f, fam_g, p, oracle=True):
    vn = von_neumann_certificate(system, fam_f, 1.0, p, ell=2)
    witness, worst = reference_worst_subset(system, fam_f, p)
    assert (vn.worst_subset, vn.worst_subset_lp) == (witness, worst)
    cc = counting_lemma_certificate(system, fam_f, fam_g, 1.0, p, ell=2)
    witness, worst = reference_worst_pair(system, fam_f, fam_g, p)
    assert (cc.worst_pair, cc.worst_pair_lp) == (witness, worst)
    if oracle:
        assert math.isclose(
            vn.worst_subset_lp, brute_worst(system, fam_f, None, p), rel_tol=REL_TOL
        )
        assert math.isclose(
            cc.worst_pair_lp, brute_worst(system, fam_f, fam_g, p), rel_tol=REL_TOL
        )
    return vn, cc


class TestCertificateEnumeration:
    """Both certificates' depth-first walk against a per-subset scan."""

    @pytest.mark.parametrize("shape", sorted(ENUM_SHAPES))
    @pytest.mark.parametrize("p", ENUM_PS, ids=repr)
    def test_matches_per_subset_scan(self, shape, p):
        rng = np.random.Generator(np.random.Philox(key=11))
        edges = ENUM_SHAPES[shape]
        atoms = 2 if shape == "K4" else 3
        n = 1 + max(v for e in edges for v in e)
        sys_ = make_system([rng.uniform(0.2, 2.0, size=atoms) for _ in range(n)], edges)
        fam_f = signed_family(sys_, rng, -2.0, 2.0)
        fam_g = signed_family(sys_, rng, -2.0, 2.0)
        assert_matches_reference(sys_, fam_f, fam_g, p)

    @pytest.mark.parametrize("p", [Exponent(2.0), INF], ids=repr)
    def test_zero_edge_tensor(self, p):
        rng = np.random.Generator(np.random.Philox(key=12))
        sys_ = triangle_system(rng)
        fam_f = signed_family(sys_, rng, -2.0, 2.0)
        fam_f[(0, 2)] = edge_function(sys_, (0, 2), np.zeros((3, 3)))
        fam_g = signed_family(sys_, rng, -2.0, 2.0)
        assert product_lp_norm(sys_, [fam_f[(0, 1)], fam_f[(0, 2)]], p) == 0.0
        assert_matches_reference(sys_, fam_f, fam_g, p)

    @pytest.mark.parametrize("p", ENUM_PS, ids=repr)
    def test_tied_norms_keep_the_first_witness(self, p):
        # Every edge carries 2 off the diagonal and 1 on it; with two atoms a
        # triangle has at most two off-diagonal edges, so at p = inf every
        # subset of two or more edges reaches 4, and pairs with f = g tie
        # across every split of one edge set at any p.
        sys_ = make_system([[1.0, 1.0]] * 3, ENUM_SHAPES["K3"])
        fam = {e: edge_function(sys_, e, [[1.0, 2.0], [2.0, 1.0]]) for e in sys_.edges}
        vn, cc = assert_matches_reference(sys_, fam, fam, p)
        if p.is_inf:
            assert vn.worst_subset == ((0, 1), (0, 2))
            assert cc.worst_pair == (((0, 2), (1, 2)), ())
            assert vn.worst_subset_lp == cc.worst_pair_lp == 4.0

    def test_block_path(self):
        # 41**3 = 68,921 cells: the three-edge products take Grid.expect's
        # block path.
        rng = np.random.Generator(np.random.Philox(key=13))
        sys_ = triangle_system(rng, atoms=41)
        fam_f = signed_family(sys_, rng, -2.0, 2.0)
        fam_g = signed_family(sys_, rng, -2.0, 2.0)
        assert_matches_reference(sys_, fam_f, fam_g, Exponent(2.0), oracle=False)



WALK_SHAPES = {**ENUM_SHAPES, "star": [(0, 1), (0, 2), (0, 3)]}


def per_choice_norms(system, sides, p):
    """The walk's entries, one choice_norm per choice of edge states."""
    out = []
    for states in itertools.product(range(len(sides) + 1), repeat=len(system.edges)):
        funcs = [
            side[j] for s, side in enumerate(sides) for j, t in enumerate(states) if t == s + 1
        ]
        out.append(choice_norm(system, funcs, p))
    return out


def walk_system(rng, edges, atoms):
    n = 1 + max(v for e in edges for v in e)
    return make_system([rng.uniform(0.2, 2.0, size=atoms[v]) for v in range(n)], edges)


def walk_sides(system, rng, count, zero=()):
    """`count` sides of random tensors; tensor j of side s is zero if s * |E| + j in `zero`."""
    edges = system.edges
    return [
        [
            edge_function(
                system,
                e,
                np.zeros(system.edge_shape(e))
                if s * len(edges) + j in zero
                else rng.uniform(-2.0, 2.0, size=system.edge_shape(e)),
            )
            for j, e in enumerate(edges)
        ]
        for s in range(count)
    ]


@st.composite
def walk_case(draw):
    shape = draw(st.sampled_from(sorted(WALK_SHAPES)))
    edges = WALK_SHAPES[shape]
    rng = np.random.Generator(np.random.Philox(key=draw(seeds)))
    top = 2 if shape == "K4" else 3
    atoms = [draw(st.integers(1, top)) for _ in range(1 + max(v for e in edges for v in e))]
    system = walk_system(rng, edges, atoms)
    count = draw(st.integers(1, 2))
    zero = draw(st.sets(st.integers(0, count * len(edges) - 1), max_size=2))
    return system, walk_sides(system, rng, count, zero), draw(st.sampled_from(ENUM_PS))


class TestLevelWalk:
    """`_product_norms` against one `choice_norm` per choice, bit for bit."""

    @given(walk_case())
    @settings(max_examples=40, deadline=None)
    def test_equals_per_choice(self, case):
        system, sides, p = case
        assert _product_norms(system, sides, p).tolist() == per_choice_norms(system, sides, p)

    @pytest.mark.parametrize("cap", [1, 50, 300])
    @pytest.mark.parametrize("p", [Exponent(2.0), INF], ids=repr)
    def test_prefix_split(self, cap, p, monkeypatch):
        # K4 with 2 atoms: 729 pairs of 16 cells, past every cap here, so the
        # walk fixes the states of its first 6, 5 or 4 edges.
        rng = np.random.Generator(np.random.Philox(key=14))
        system = walk_system(rng, ENUM_SHAPES["K4"], [2, 2, 2, 2])
        sides = walk_sides(system, rng, 2, zero={3})
        want = _product_norms(system, sides, p).tolist()
        assert want == per_choice_norms(system, sides, p)
        monkeypatch.setattr(counting, "LIVE_CELLS", cap)
        assert _product_norms(system, sides, p).tolist() == want

    @pytest.mark.parametrize("p", [Exponent(2.0), INF], ids=repr)
    def test_rows_past_one_block(self, p):
        # 41**3 = 68,921 cells: each three-vertex product is summed through
        # Grid.expect's block path, one row at a time.
        rng = np.random.Generator(np.random.Philox(key=15))
        system = walk_system(rng, ENUM_SHAPES["K3"], [41, 41, 41])
        sides = walk_sides(system, rng, 2)
        assert _product_norms(system, sides, p).tolist() == per_choice_norms(system, sides, p)

    def test_no_edges(self):
        system = make_system([[1.0, 2.0]], [])
        assert _product_norms(system, [[], []], Exponent(2.0)).tolist() == [1.0]

    def test_peak_memory_on_k5(self):
        # K5 with 2 atoms: 3**10 pairs of 32 cells would be a 15 MB stack;
        # the walk holds at most LIVE_CELLS cells of products at a time.
        rng = np.random.Generator(np.random.Philox(key=16))
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        system = walk_system(rng, edges, [2] * 5)
        sides = walk_sides(system, rng, 2)
        p = Exponent(3.5)
        assert 3**10 * 32 > 16 * counting.LIVE_CELLS
        tracemalloc.start()
        try:
            values = _product_norms(system, sides, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The values, then a few arrays of at most LIVE_CELLS floats each:
        # the stack, the one before it and a block's magnitudes.
        assert peak < values.nbytes + 8 * 8 * counting.LIVE_CELLS
        for code in np.random.Generator(np.random.Philox(key=17)).integers(0, 3**10, size=200):
            states = np.unravel_index(code, (3,) * 10)
            funcs = [sides[s][j] for s in (0, 1) for j in range(10) if states[j] == s + 1]
            assert values[code] == choice_norm(system, funcs, p)


@st.composite
def item_families(draw):
    """A K3 or C4 case as the von-neumann and counting items draw them: p in
    {2, 4, inf} and a normalized f and g; C in [1, 8] or the probe's own worst norm."""
    from boxlab import suite

    rng = suite._philox(draw(seeds))
    system = draw(st.sampled_from([suite._triangle_system, suite._four_cycle_system]))()
    p = Exponent.parse(draw(st.sampled_from(["2", "4", "inf"])))
    ell = ell_von_neumann(2, p)
    fns = suite._normalized_family(system, rng, ell, p)
    eps = float(rng.uniform(0.0, 0.3))
    rows = [
        (system, e, fns[e].values + eps * suite._signed_values(rng, system.edge_shape(e)))
        for e in system.edges
    ]
    gns = suite._normalized(rows, ell, p)
    C = draw(st.one_of(st.floats(1.0, 8.0), st.sampled_from(["worst"])))
    return system, fns, gns, p, C


def same_fields(got, want):
    """Every field equal bit for bit: repr rounds no float and shows a zero's sign."""
    return got == want and repr(got) == repr(want)


class TestRedecideAtC:
    @settings(max_examples=40)
    @given(item_families())
    def test_equals_a_fresh_certificate(self, case):
        system, fns, gns, p, C = case
        vn = von_neumann_certificate(system, fns, 1.0, p)
        ct = counting_lemma_certificate(system, fns, gns, 1.0, p)
        for probe, worst, fresh in (
            (vn, vn.worst_subset_lp, lambda c: von_neumann_certificate(system, fns, c, p)),
            (ct, ct.worst_pair_lp,
             lambda c: counting_lemma_certificate(system, fns, gns, c, p)),
        ):
            c = max(1.0, worst) if C == "worst" else C
            assert same_fields(probe.at_C(c), fresh(c))
            assert same_fields(probe.at_C(c).at_C(1.0), probe)

    @pytest.mark.parametrize("bad", [0.5, math.nextafter(1.0, 0.0), math.inf, math.nan])
    def test_bad_C_raises_as_the_functions_do(self, bad):
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = triangle_system(rng, uniform=True)
        fam = signed_family(sys_, rng)
        for cert in (von_neumann_certificate(sys_, fam, 2.0, Exponent(2.0)),
                     counting_lemma_certificate(sys_, fam, fam, 2.0, Exponent(2.0))):
            with pytest.raises(BadSpec, match="C must be finite"):
                cert.at_C(bad)
