import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import engine, pseudo
from boxlab.boxnorm import REL_TOL, box_norm, lp_box_norm
from boxlab.counting import full_assignment
from boxlab.engine import digits_for, sup_grid
from boxlab.generators import GenSpec, generate
from boxlab.errors import (
    BadSpec,
    DigitOutOfRange,
    MalformedProblem,
    NumericalInconsistency,
    POutOfRange,
    SizeCapExceeded,
    SubsetCapExceeded,
    WrongHypergraph,
)
from boxlab.instances import emit_json
from boxlab.pseudo import (
    PseudoParams,
    Slot,
    SupProblem,
    _verdict,
    bounded_slot_mass_sup,
    centered_family_correlation_sup,
    certify_pseudorandom,
    check_C1,
    check_C2a,
    check_C2b,
    check_C3,
    ell_pseudorandom,
    linear_forms_deviation,
    majorant_gap_correlation_sup,
    replica_mass_max,
    selector_correlation_sup,
    shifted_majorant_gap_correlation_sup,
    sup_multilinear,
    sum_family_certificate,
    near_majorant_certificate,
)
from boxlab.spaces import INF, Exponent, Grid, constant_function, edge_function, make_system

from oracles import conditional_brute, deviation_brute, lambda_form_brute, sup_correlation_brute

seeds = st.integers(min_value=0, max_value=2**31 - 1)

K3_EDGES = [(0, 1), (0, 2), (1, 2)]


def k3_system(atoms=2):
    return make_system([np.ones(atoms) / atoms] * 3, K3_EDGES)


def ones_family(system):
    return {e: constant_function(system, e, 1.0) for e in system.edges}


def perturbed_family(system, seed, eps):
    rng = np.random.Generator(np.random.Philox(key=seed))
    fam = {}
    for e in system.edges:
        vals = 1.0 + eps * rng.uniform(-1, 1, size=system.edge_shape(e))
        fam[e] = edge_function(system, e, np.maximum(vals, 0.0))
    return fam


class TestEllRule:
    @pytest.mark.parametrize(
        "C,p,want",
        [
            (1.0, 4.0, 4),
            (1.0, float("inf"), 2),
            (2.0, 2.0, 6),
            (1.0, 2.0, 6),  # 2q + (1 - 1/C) + 1/p = 4.5
            (1.5, 3.0, 4),
        ],
    )
    def test_table(self, C, p, want):
        p_exp = INF if math.isinf(p) else Exponent(p)
        assert ell_pseudorandom(C, p_exp) == want

    def test_errors(self):
        with pytest.raises(BadSpec):
            ell_pseudorandom(0.5, Exponent(2.0))
        with pytest.raises(POutOfRange):
            ell_pseudorandom(1.0, Exponent(1.0))


class TestPseudoParams:
    def test_resolved_ell_defaults_to_rule(self):
        params = PseudoParams(1.0, 0.1, Exponent(4.0))
        assert params.resolved_ell() == 4
        assert PseudoParams(1.0, 0.1, Exponent(4.0), ell=8).resolved_ell() == 8

    def test_validation(self):
        with pytest.raises(BadSpec):
            PseudoParams(0.5, 0.1, Exponent(2.0)).validate()
        with pytest.raises(BadSpec):
            PseudoParams(1.0, 0.0, Exponent(2.0)).validate()
        with pytest.raises(BadSpec):
            PseudoParams(1.0, 1.5, Exponent(2.0)).validate()
        for bad in (math.inf, math.nan):
            with pytest.raises(BadSpec):
                PseudoParams(bad, 0.1, Exponent(2.0)).validate()
            with pytest.raises(BadSpec):
                PseudoParams(1.0, bad, Exponent(2.0)).validate()

    def test_to_dict(self):
        d = PseudoParams(2.0, 0.25, INF).to_dict()
        assert d == {"C": 2.0, "eta": 0.25, "p": "inf", "ell": 4, "c2b_replicas": 2}


class TestFullFamily:
    def test_nonnegativity_enforced(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        fam[(0, 1)] = edge_function(sys_, (0, 1), [[1.0, -0.1], [1.0, 1.0]])
        with pytest.raises(BadSpec):
            full_assignment(sys_, fam, nonnegative=True)
        # signed families pass without the flag
        assert set(full_assignment(sys_, fam)) == set(K3_EDGES)


class TestSupProblem:
    def test_validation(self):
        sys_ = k3_system()
        kernel = constant_function(sys_, (0, 1), 1.0)
        with pytest.raises(MalformedProblem):
            SupProblem(sys_, (0, 1), 2, kernel,
                       (Slot((0, 1), 0),)).validate()
        with pytest.raises(DigitOutOfRange):
            SupProblem(sys_, (0, 1), 2, kernel,
                       (Slot((0, 2), 5),)).validate()
        with pytest.raises(DigitOutOfRange):
            SupProblem(sys_, (0, 1), 2, kernel, (), kernel_replica=2).validate()
        bad_bound = edge_function(sys_, (0, 2), [[1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(MalformedProblem):
            SupProblem(sys_, (0, 1), 2, kernel,
                       (Slot((0, 2), 0, (("", bad_bound),)),)).validate()

    @pytest.mark.parametrize("edge", [(1, 5), (2, 0), (0, 0, 2), (), (-1, 2), ("a",)])
    def test_bad_slot_edge(self, edge):
        # An edge must be strictly increasing over the system's vertices.
        sys_ = k3_system()
        kernel = constant_function(sys_, (0, 1), 1.0)
        problem = SupProblem(sys_, (0, 1), 2, kernel, (Slot(edge, 0),))
        with pytest.raises(MalformedProblem):
            problem.validate()
        with pytest.raises(MalformedProblem):
            sup_multilinear(problem)

    def test_candidate_bounds_checked(self):
        sys_ = k3_system()
        kernel = constant_function(sys_, (0, 1), 1.0)
        bound = constant_function(sys_, (0, 2), 0.5)
        for bounds in ((), None, (("a", None), ("a", bound)),
                       (("a", None), ("b", constant_function(sys_, (1, 2), 0.5)))):
            with pytest.raises(MalformedProblem):
                SupProblem(sys_, (0, 1), 2, kernel, (Slot((0, 2), 0, bounds),)).validate()
        two = Slot((0, 2), 0, (("a", None), ("b", bound)))
        SupProblem(sys_, (0, 1), 2, kernel, (two,)).validate()

    @given(seeds)
    @settings(max_examples=10)
    def test_exact_matches_brute(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = k3_system(2)
        kernel = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 2)))
        bound = edge_function(sys_, (1, 2), rng.uniform(0, 1, size=(2, 2)))
        slots = (Slot((0, 2), 0), Slot((1, 2), 1, (("", bound),)))
        problem = SupProblem(sys_, (0, 1), 2, kernel, slots)
        res = sup_multilinear(problem, mode="exact")
        want = sup_correlation_brute(
            sys_, (0, 1), 2, (0, 1), kernel.values, 0,
            [((0, 2), 0, None), ((1, 2), 1, bound.values)],
        )
        assert abs(res.value - want) <= 1e-10 * max(1.0, want)
        assert res.certified and res.mode == "exact"

    @given(seeds)
    @settings(max_examples=10)
    def test_heuristic_lower_bounds_exact(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = k3_system(2)
        kernel = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(2, 2)))
        slots = (Slot((0, 2), 0), Slot((1, 2), 0))
        problem = SupProblem(sys_, (0, 1), 2, kernel, slots)
        exact = sup_multilinear(problem, mode="exact")
        heur = sup_multilinear(problem, mode="heuristic", restarts=8, seed=1)
        assert heur.value <= exact.value + 1e-10 * max(1.0, exact.value)
        assert not heur.certified

    def test_off_base_kernel_replica(self):
        # kernel on (0, 2) reading replica 1 of coordinate 2
        rng = np.random.Generator(np.random.Philox(key=5))
        sys_ = k3_system(2)
        kernel = edge_function(sys_, (0, 2), rng.uniform(-1, 1, size=(2, 2)))
        bound = edge_function(sys_, (1, 2), rng.uniform(0, 1, size=(2, 2)))
        problem = SupProblem(
            sys_, (0, 1), 2, kernel, (Slot((1, 2), 0, (("", bound),)),), kernel_replica=1
        )
        res = sup_multilinear(problem, mode="exact")
        want = sup_correlation_brute(
            sys_, (0, 1), 2, (0, 2), kernel.values, 1,
            [((1, 2), 0, bound.values)],
        )
        assert abs(res.value - want) <= 1e-10 * max(1.0, want)


class TestVerdictRule:
    @pytest.mark.parametrize(
        "worst, comparison, certified, want",
        [
            (0.5, "le", True, "true"),
            (0.5 + REL_TOL, "le", True, "true"),
            (0.5 + 2 * REL_TOL, "le", True, "false"),
            (0.5 + 2 * REL_TOL, "le", False, "false"),  # a lower bound refutes
            (0.4, "le", False, "unknown"),
            (-math.inf, "le", True, "true"),
            (0.5, "ge", True, "true"),
            (0.5 - REL_TOL, "ge", True, "true"),
            (0.5 - 2 * REL_TOL, "ge", True, "false"),
            (0.6, "ge", False, "unknown"),
            (math.nan, "le", True, "false"),
            (math.nan, "ge", False, "false"),
        ],
    )
    def test_table(self, worst, comparison, certified, want):
        assert _verdict(worst, 0.5, comparison, certified) == want


class TestConditionChecks:
    def test_c1_true_on_ones(self):
        sys_ = k3_system()
        rep = check_C1(sys_, ones_family(sys_), PseudoParams(1.0, 0.1, Exponent(2.0)))
        assert rep.verdict == "true"
        assert math.isclose(rep.worst_value, 1.0, rel_tol=1e-12)
        assert rep.details["subsets_checked"] == 7
        # Every mean is 1.0 exactly: the first subset in scan order stays the witness.
        assert rep.witness["subset"] == [[0, 1]]

    def test_c1_false_with_witness(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        fam[(0, 1)] = constant_function(sys_, (0, 1), 0.0)
        rep = check_C1(sys_, fam, PseudoParams(1.0, 0.1, Exponent(2.0)))
        assert rep.verdict == "false"
        assert [0, 1] in rep.witness["subset"]

    def test_c1_refuses_a_mean_that_is_not_finite(self):
        # The mean over all three edges is 6.25e-100 in exact arithmetic, far
        # below 1 - eta, but its float product meets inf * 0 and reads nan;
        # skipping it certified "true".  The first mean past the float range
        # in scan order, that of (0, 1) and (0, 2), is refused.
        sys_ = k3_system()
        values = {
            (0, 1): [[1e200, 1e-300], [1e-300, 1e-300]],
            (0, 2): [[1e200, 1e-300], [1e200, 1e200]],
            (1, 2): [[0.0, 10.0], [10.0, 10.0]],
        }
        fam = {e: edge_function(sys_, e, v) for e, v in values.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalInconsistency,
                match=r"C1 mean of the product over \[\[0, 1\], \[0, 2\]\] is inf, not finite",
            ):
                check_C1(sys_, fam, PseudoParams(2.0, 0.5, Exponent(2.0)))

    def test_c1_subset_cap(self):
        sys_ = k3_system()
        with pytest.MonkeyPatch.context() as mp, pytest.raises(SubsetCapExceeded):
            mp.setattr(pseudo, "SUBSET_CAP", 4)
            check_C1(sys_, ones_family(sys_), PseudoParams(1.0, 0.1, Exponent(2.0)))

    def test_c2a_true_when_psi_equals_nu(self):
        sys_ = k3_system()
        fam = perturbed_family(sys_, 1, 0.05)
        rep = check_C2a(sys_, fam, fam, PseudoParams(2.0, 0.1, Exponent(2.0)),
                        mode="exact")
        assert rep.verdict == "true"
        assert rep.worst_value <= 1e-12
        assert rep.details["psi_lp_ok"]

    def test_c2a_false_on_lp_violation(self):
        sys_ = k3_system()
        nu = ones_family(sys_)
        psi = {e: constant_function(sys_, e, 5.0) for e in sys_.edges}
        rep = check_C2a(sys_, nu, psi, PseudoParams(1.0, 0.9, Exponent(2.0)),
                        mode="exact")
        assert rep.verdict == "false"
        assert not rep.details["psi_lp_ok"]
        assert "psi_lp" in rep.witness

    def test_c2a_false_on_cut_violation(self):
        sys_ = k3_system()
        nu = {e: constant_function(sys_, e, 2.0) for e in sys_.edges}
        psi = ones_family(sys_)
        rep = check_C2a(sys_, nu, psi, PseudoParams(3.0, 0.01, Exponent(2.0)),
                        mode="exact")
        assert rep.verdict == "false"
        assert rep.worst_value > rep.bound

    def test_c2b_zero_kernel_true(self):
        sys_ = k3_system()
        fam = perturbed_family(sys_, 2, 0.05)
        rep = check_C2b(sys_, fam, fam, PseudoParams(1.5, 0.1, Exponent(2.0)),
                        mode="exact")
        assert rep.verdict == "true"
        assert rep.worst_value <= 1e-12
        assert rep.details["replicas"] == 2

    def test_c2b_heuristic_below_bound_is_unknown(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        rep = check_C2b(sys_, fam, fam, PseudoParams(1.5, 0.1, Exponent(2.0)),
                        mode="heuristic")
        assert rep.verdict == "unknown"
        assert rep.mode == "heuristic"

    def test_c2b_auto_past_cap_certifies_ones(self):
        # 2**36 combinations per choice exceed the cap; the zero kernel's
        # prefix bound proves the sup is 0 without evaluating any vertex.
        sys_ = k3_system(3)
        fam = ones_family(sys_)
        rep = check_C2b(sys_, fam, fam, PseudoParams(1.5, 0.1, Exponent(2.0)),
                        mode="auto")
        assert rep.verdict == "true" and rep.mode == "exact"
        assert rep.worst_value == 0.0

    def test_c2b_auto_falls_back_when_budget_runs_out(self):
        sys_, nu, _ = generate(GenSpec(n=3, r=2, atoms=3, kind="random_nonneg", seed=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", 2**12)
            rep = check_C2b(sys_, nu, ones_family(sys_),
                            PseudoParams(1.5, 0.1, Exponent(2.0)), mode="auto", restarts=2)
        assert rep.mode == "heuristic"
        assert rep.witness["mode"] == "heuristic"

    @staticmethod
    def split_instance():
        """K3 where only edge (0, 1) has a nonzero kernel; its sup is 0.54."""
        sys_ = k3_system(2)
        spike = np.zeros((2, 2))
        spike[0, 0] = 1.2
        rng = np.random.Generator(np.random.Philox(key=0))
        nu = {(0, 1): edge_function(sys_, (0, 1), rng.uniform(0, 2, size=(2, 2)))}
        psi = {(0, 1): constant_function(sys_, (0, 1), 1.0)}
        for e in ((0, 2), (1, 2)):
            nu[e] = psi[e] = edge_function(sys_, e, spike)
        return sys_, nu, psi, PseudoParams(1.5, 0.3, Exponent(2.0))

    def test_c2b_auto_uncertified_when_choices_split(self):
        # Under cap 2**12 the selector choices of edge (0, 1) split: the
        # spiky nu bounds get pruned and stay exact, while the others run
        # out of budget and report heuristic lower bounds (the largest is
        # 0.19).  Their true sup (0.54) exceeds eta, so the auto verdict
        # must not be "true".
        sys_, nu, psi, params = self.split_instance()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", 2**12)
            rep = check_C2b(sys_, nu, psi, params, mode="auto", restarts=2)
        assert rep.worst_value < params.eta
        assert rep.verdict == "unknown" and rep.mode == "heuristic"
        assert rep.witness["mode"] == "heuristic"
        exact = check_C2b(sys_, nu, psi, params, mode="exact")
        assert exact.verdict == "false" and exact.worst_value > params.eta

    def test_c2b_auto_seeded_choices_finish(self):
        # Under cap 2**15 each choice is seeded with the best value of the
        # choices before it, prunes more and finishes within its budget, so
        # auto is the exact result.
        sys_, nu, psi, params = self.split_instance()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", 2**15)
            rep = check_C2b(sys_, nu, psi, params, mode="auto", restarts=2)
        exact = check_C2b(sys_, nu, psi, params, mode="exact")
        assert rep.verdict == "false" and rep.mode == "exact"
        assert rep == exact

    def test_c2b_value_and_witness_match_brute(self, monkeypatch):
        # One replica: every other edge is one slot bounded by nu or by one.
        # nu is one on (1, 2), so both choices there tie exactly and the
        # witness must name the first, "nu".
        rng = np.random.Generator(np.random.Philox(key=0))
        sys_ = k3_system(2)
        nu = {e: edge_function(sys_, e, rng.uniform(0, 1.5, size=(2, 2)))
              for e in sys_.edges}
        nu[(1, 2)] = constant_function(sys_, (1, 2), 1.0)
        psi = ones_family(sys_)
        monkeypatch.setattr(pseudo, "C2B_REPLICAS", 1)
        params = PseudoParams(2.0, 0.5, Exponent(2.0))
        rep = check_C2b(sys_, nu, psi, params, mode="exact")
        choices = []
        for e in sys_.edges:
            kernel = nu[e].values - psi[e].values
            others = [e2 for e2 in sys_.edges if e2 != e]
            for labels in itertools.product(("nu", "one"), repeat=len(others)):
                slots = [(e2, 0, nu[e2].values if lab == "nu" else None)
                         for e2, lab in zip(others, labels)]
                value = sup_correlation_brute(sys_, e, 1, e, kernel, 0, slots)
                choices.append((value, list(e), list(labels)))
        best = max(value for value, _, _ in choices)
        first = next(c for c in choices if c[0] >= best - 1e-12)
        assert abs(rep.worst_value - best) <= 1e-12
        assert rep.witness["edge"] == first[1]
        assert rep.witness["selectors"] == first[2] == ["one", "nu"]
        assert rep.mode == "exact" and rep.details["replicas"] == 1

    def test_c3_ones(self):
        sys_ = k3_system()
        rep = check_C3(sys_, ones_family(sys_), PseudoParams(1.0, 0.1, Exponent(2.0)))
        assert rep.verdict == "true"
        assert math.isclose(rep.worst_value, 1.0, rel_tol=1e-12)

    def test_c3_false_on_spiky_family(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        spike = np.array([[4.0, 0.0], [0.0, 0.0]])
        fam[(0, 1)] = edge_function(sys_, (0, 1), spike)
        rep = check_C3(sys_, fam, PseudoParams(1.0, 0.01, Exponent(2.0)))
        assert rep.verdict == "false"
        assert rep.worst_value > rep.bound

    def test_c3_moment_overflow_raises(self):
        # 1.1**100000 overflows: refused at the first such moment, no warning.
        sys_ = k3_system()
        fam = ones_family(sys_)
        fam[(0, 1)] = edge_function(sys_, (0, 1), np.full((2, 2), 1.1))
        params = PseudoParams(2.0, 0.5, Exponent(2.0), ell=100000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInconsistency, match=r"C3 .*\[0, 2\].*ell=100000"):
                check_C3(sys_, fam, params)
            finite = check_C3(sys_, fam, PseudoParams(2.0, 0.5, Exponent(2.0), ell=2000))
        assert math.isfinite(finite.worst_value)


SUB_SHAPES = {
    "K3": K3_EDGES,
    "path": [(0, 1), (1, 2), (2, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "mixed": [(0,), (0, 1), (1, 2)],
}


@st.composite
def sub_collection_case(draw):
    """A K3, 4-vertex path, star or mixed-arity path with 1-3 atoms per
    vertex, a nonnegative family and ell in {2, 4}.  On all but K3 some
    sub-collections miss coordinates, and on the mixed path the product of
    (0,) reads no coordinate off (0, 1)."""
    edges = SUB_SHAPES[draw(st.sampled_from(sorted(SUB_SHAPES)))]
    rng = np.random.Generator(np.random.Philox(key=draw(seeds)))
    n = 1 + max(v for e in edges for v in e)
    atoms = [draw(st.integers(1, 3)) for _ in range(n)]
    system = make_system([rng.uniform(0.2, 2.0, size=z) for z in atoms], edges)
    fam = {
        e: edge_function(system, e, rng.uniform(0.0, 2.0, size=system.edge_shape(e)))
        for e in edges
    }
    return system, fam, draw(st.sampled_from([2, 4]))


def brute_scan(scored, pick):
    """(worst value, its witness, the best value of any other witness) of
    `scored`, a list of (value, witness) in scan order; `pick` is min or max."""
    worst = pick(v for v, _ in scored)
    witness = next(w for v, w in scored if v == worst)
    runner_up = pick((v for v, w in scored if w != witness), default=math.nan)
    return worst, witness, runner_up


def assert_scan_matches(rep, worst, witness, runner_up, witness_of):
    assert math.isclose(rep.worst_value, worst, rel_tol=1e-12)
    if not abs(runner_up - worst) <= 1e-9 * max(1.0, abs(worst)):  # nan: no runner-up
        assert witness_of(rep) == witness


class TestSubCollectionChecks:
    """C1 and C3 against full-loop oracles, sub-collection by sub-collection."""

    @given(sub_collection_case())
    @settings(max_examples=30, deadline=None)
    def test_c1_matches_brute(self, case):
        system, fam, ell = case
        rep = check_C1(system, fam, PseudoParams(2.0, 0.5, Exponent(2.0), ell=ell))
        scored = [
            (lambda_form_brute(system, {e: fam[e] for e in sub}), [list(e) for e in sub])
            for r in range(1, len(system.edges) + 1)
            for sub in itertools.combinations(system.edges, r)
        ]
        assert_scan_matches(rep, *brute_scan(scored, min), lambda r: r.witness["subset"])

    @given(sub_collection_case())
    @settings(max_examples=30, deadline=None)
    def test_c3_matches_brute(self, case):
        system, fam, ell = case
        rep = check_C3(system, fam, PseudoParams(2.0, 0.5, Exponent(2.0), ell=ell))
        scored = []
        for e in system.edges:
            others = [x for x in system.edges if x != e]
            weights = [system.spaces[v].weights for v in e]
            for r in range(1, len(others) + 1):
                for sub in itertools.combinations(others, r):
                    dens = conditional_brute(system, e, {x: fam[x] for x in sub})
                    moment = math.fsum(
                        math.prod(float(w[i]) for w, i in zip(weights, cell)) * dens[cell] ** ell
                        for cell in itertools.product(*(range(len(w)) for w in weights))
                    )
                    scored.append((moment, {"edge": list(e), "subset": [list(x) for x in sub]}))
        assert rep.details["moments_checked"] == len(scored)
        assert_scan_matches(rep, *brute_scan(scored, max), lambda r: r.witness)


class TestLinearFormsDeviation:
    def test_ones_has_zero_eta(self):
        sys_ = k3_system()
        rep = linear_forms_deviation(sys_, ones_family(sys_), 2)
        assert rep.eta == 0.0
        assert rep.exact and not rep.degraded
        assert rep.min_value == 1.0 and rep.max_value == 1.0
        assert rep.patterns_checked == 1 << 12

    @given(seeds)
    @settings(max_examples=5)
    def test_matches_brute_on_single_edge(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = make_system([np.ones(2) / 2] * 2, [(0, 1)])
        fam = {(0, 1): edge_function(sys_, (0, 1), rng.uniform(0, 2, size=(2, 2)))}
        rep = linear_forms_deviation(sys_, fam, 2)
        lo, hi = deviation_brute(sys_, fam, 2)
        assert abs(rep.min_value - lo) <= 1e-11 * max(1.0, abs(lo))
        assert abs(rep.max_value - hi) <= 1e-11 * max(1.0, abs(hi))
        assert math.isclose(
            rep.eta, max(hi - 1.0, 1.0 - lo, 0.0), rel_tol=1e-10, abs_tol=1e-14
        )

    @staticmethod
    def plain_scan(system, fam, ell):
        """Every mask ascending: wvec times its factors ascending, one sum
        each; the first extreme wins.  The module's products and tie rule."""
        factors = [(e, d) for e in system.edges
                   for d in itertools.product(range(ell), repeat=len(e))]
        coords = sorted({v for e in system.edges for v in e})
        grid = Grid(system, [(v, m) for v in coords for m in range(ell)])
        wvec = np.broadcast_to(grid.weight_tensor(), grid.shape).reshape(-1)
        flat = [np.broadcast_to(grid.lift(e, fam[e].values, d), grid.shape).reshape(-1)
                for e, d in factors]
        best_min, best_max = (math.inf, 0), (-math.inf, 0)
        for mask in range(1 << len(factors)):
            vec = wvec.copy()
            for k in range(len(factors)):
                if (mask >> k) & 1:
                    vec *= flat[k]
            val = float(np.sum(vec))
            if val < best_min[0]:
                best_min = (val, mask)
            if val > best_max[0]:
                best_max = (val, mask)
        return best_min, best_max

    @given(seeds, st.sampled_from([1, 4, 16, 64]), st.booleans())
    @settings(max_examples=20)
    def test_blocked_scan_matches_plain_loop(self, seed, block, integer):
        # A small block forces the outer loop over the lowest factors;
        # integer tensors make exact ties between patterns.
        rng = np.random.Generator(np.random.Philox(key=seed))
        n_edges = int(rng.integers(1, 3))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=int(rng.integers(1, 4)))
                            for _ in range(3)], [(0, 1), (1, 2)][:n_edges])
        fam = {}
        for e in sys_.edges:
            shape = sys_.edge_shape(e)
            vals = (rng.integers(0, 3, size=shape).astype(float) if integer
                    else rng.uniform(0.0, 2.0, size=shape))
            fam[e] = edge_function(sys_, e, vals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "BLOCK_CELLS", block)
            rep = linear_forms_deviation(sys_, fam, 2)
        want_min, want_max = self.plain_scan(sys_, fam, 2)
        assert (rep.min_value, int(rep.witness_min["mask"], 16)) == want_min
        assert (rep.max_value, int(rep.witness_max["mask"], 16)) == want_max

    @pytest.mark.parametrize("block", [1, 64, pseudo.BLOCK_CELLS])
    def test_all_ones_witnesses_are_the_empty_pattern(self, block):
        # Every pattern ties at 1, so both witnesses keep mask 0x0.
        sys_ = k3_system()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "BLOCK_CELLS", block)
            rep = linear_forms_deviation(sys_, ones_family(sys_), 2)
        assert rep.witness_min == {"mask": "0x0", "factors": []}
        assert rep.witness_max == {"mask": "0x0", "factors": []}

    def test_sum_family_scan_stays_within_one_block(self):
        # The thm42 shape: K3, 2 atoms, ell = 2, 4,096 patterns of 64 cells.
        # One block of BLOCK_CELLS elements is 0.5 MB; the whole doubling
        # was 4 MB.
        system, lam, _ = generate(GenSpec(n=3, r=2, atoms=2, kind="perturbed_ones",
                                          seed=109, epsilon=1e-11))
        tracemalloc.start()
        try:
            rep = linear_forms_deviation(system, lam, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.patterns_checked == 1 << 12 and rep.exact
        assert peak < 1_000_000

    def test_four_atoms_match_plain_loop(self):
        # 4,096 patterns of 4,096 cells: 16 patterns per block, 256 prefixes.
        system, fam, _ = generate(GenSpec(n=3, r=2, atoms=4, kind="perturbed_ones",
                                          seed=7, epsilon=0.1))
        rep = linear_forms_deviation(system, fam, 2)
        want_min, want_max = self.plain_scan(system, fam, 2)
        assert rep.exact and rep.patterns_checked == 1 << 12
        assert (rep.min_value, int(rep.witness_min["mask"], 16)) == want_min
        assert (rep.max_value, int(rep.witness_max["mask"], 16)) == want_max

    def test_sampled_tie_keeps_first_listed_mask(self, monkeypatch):
        # A zero edge: every pattern reading it is 0, the others 1.  The
        # listed masks start with the empty one (1) and the full one (0),
        # so the witnesses are those two, although smaller masks tie with
        # the full one.
        monkeypatch.setattr(pseudo, "PATTERN_CAP", 16)
        monkeypatch.setattr(pseudo, "SAMPLE_DEFAULT", 16)
        sys_ = k3_system()
        fam = ones_family(sys_)
        fam[(1, 2)] = constant_function(sys_, (1, 2), 0.0)
        rep = linear_forms_deviation(sys_, fam, 2)
        assert rep.degraded and rep.patterns_checked == 2 + 3 + 16
        assert (rep.min_value, rep.witness_min["mask"]) == (0.0, hex((1 << 12) - 1))
        assert (rep.max_value, rep.witness_max["mask"]) == (1.0, "0x0")

    def test_witnesses_decode_masks(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        sys_ = make_system([np.ones(2) / 2] * 2, [(0, 1)])
        fam = {(0, 1): edge_function(sys_, (0, 1), rng.uniform(0, 2, size=(2, 2)))}
        rep = linear_forms_deviation(sys_, fam, 2)
        for witness in (rep.witness_min, rep.witness_max):
            assert set(witness) == {"mask", "factors"}
            mask = int(witness["mask"], 16)
            assert bin(mask).count("1") == len(witness["factors"])

    def test_cap_degrades_to_sampling(self):
        sys_ = k3_system()
        fam = perturbed_family(sys_, 3, 0.1)
        exact = linear_forms_deviation(sys_, fam, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "PATTERN_CAP", 16)
            mp.setattr(pseudo, "SAMPLE_DEFAULT", 64)
            sampled = linear_forms_deviation(sys_, fam, 2)
        assert sampled.degraded and not sampled.exact
        assert sampled.min_value >= exact.min_value - 1e-12
        assert sampled.max_value <= exact.max_value + 1e-12
        assert sampled.eta <= exact.eta + 1e-12
        # structured masks guarantee the empty and full patterns are present
        assert sampled.patterns_checked >= 2 + len(sys_.edges)

    def test_sampling_includes_full_pattern(self):
        sys_ = make_system([np.ones(2) / 2] * 2, [(0, 1)])
        fam = {(0, 1): edge_function(sys_, (0, 1), [[2.0, 0.5], [0.5, 1.0]])}
        exact = linear_forms_deviation(sys_, fam, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "PATTERN_CAP", 1)
            mp.setattr(pseudo, "SAMPLE_DEFAULT", 0)
            sampled = linear_forms_deviation(sys_, fam, 2)
        full_mask = (1 << 4) - 1
        vals_at_full = [
            w for w in (sampled.witness_min, sampled.witness_max)
            if int(w["mask"], 16) == full_mask
        ]
        # the full pattern is always scanned; its value bounds the extremes
        assert sampled.max_value <= exact.max_value + 1e-12
        assert sampled.min_value >= exact.min_value - 1e-12
        assert vals_at_full or sampled.patterns_checked >= 3

    @pytest.mark.parametrize("cap,mask", [(4096, "0x3"), (4, "0xfff")], ids=["exact", "sampled"])
    def test_overflowing_pattern_raises(self, monkeypatch, cap, mask):
        # The first overflowing scan position: the smallest mask in the full
        # scan (two factors of 1e308), the full mask, listed second, when
        # sampled.
        monkeypatch.setattr(pseudo, "PATTERN_CAP", cap)
        sys_ = k3_system()
        fam = {e: constant_function(sys_, e, 1e308 if e == (0, 1) else 1.0) for e in K3_EDGES}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInconsistency, match=f"pattern {mask} .*not finite"):
                linear_forms_deviation(sys_, fam, 2)


class TestCertifyPseudorandom:
    def test_params_required(self):
        sys_ = k3_system()
        with pytest.raises(BadSpec):
            certify_pseudorandom(sys_, ones_family(sys_))

    def test_ones_certify_true(self):
        sys_ = k3_system()
        cert = certify_pseudorandom(
            sys_, ones_family(sys_),
            params=PseudoParams(1.5, 0.1, Exponent(2.0)), mode="exact",
        )
        assert cert.verdict == "true"
        assert set(cert.conditions) == {"C1", "C2a", "C2b", "C3"}
        for rep in cert.conditions.values():
            assert rep.verdict == "true"

    def test_verdict_merge_false_beats_unknown(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        fam[(0, 1)] = constant_function(sys_, (0, 1), 0.0)
        cert = certify_pseudorandom(
            sys_, fam, params=PseudoParams(1.5, 0.1, Exponent(2.0)),
            mode="heuristic",
        )
        assert cert.conditions["C1"].verdict == "false"
        assert cert.verdict == "false"

    def test_heuristic_only_gives_unknown(self):
        sys_ = k3_system()
        cert = certify_pseudorandom(
            sys_, ones_family(sys_),
            params=PseudoParams(1.5, 0.1, Exponent(2.0)), mode="heuristic",
        )
        assert cert.verdict == "unknown"

    def test_to_dict_round_shape(self):
        sys_ = k3_system()
        cert = certify_pseudorandom(
            sys_, ones_family(sys_),
            params=PseudoParams(1.5, 0.1, Exponent(2.0)), mode="exact",
        )
        d = cert.to_dict()
        assert d["verdict"] == "true"
        assert d["params"]["ell"] == 6


class TestTheoremCertificates:
    def test_wrong_hypergraph(self):
        sys_ = make_system([np.ones(2) / 2] * 3, [(0, 1)])
        fam = {(0, 1): constant_function(sys_, (0, 1), 1.0)}
        with pytest.raises(WrongHypergraph):
            sum_family_certificate(sys_, fam, fam, 1.0, 1e-16, INF)
        with pytest.raises(WrongHypergraph):
            near_majorant_certificate(sys_, fam, fam, 1.0, 0.05, INF)
        two = make_system([np.ones(2) / 2] * 2, [(0,), (1,)])
        fam2 = {e: constant_function(two, e, 1.0) for e in two.edges}
        with pytest.raises(WrongHypergraph):
            sum_family_certificate(two, fam2, fam2, 1.0, 1e-16, INF)

    def test_bad_constants(self):
        sys_ = k3_system()
        lam = ones_family(sys_)
        with pytest.raises(BadSpec):
            sum_family_certificate(sys_, lam, lam, 0.5, 1e-16, INF)
        with pytest.raises(BadSpec):
            sum_family_certificate(sys_, lam, lam, 1.0, 0.0, INF)
        with pytest.raises(BadSpec):
            near_majorant_certificate(sys_, lam, lam, 1.0, -0.1, INF)
        for bad in (math.inf, math.nan):
            for cert in (sum_family_certificate, near_majorant_certificate):
                with pytest.raises(BadSpec):
                    cert(sys_, lam, lam, bad, 0.05, INF)
                with pytest.raises(BadSpec):
                    cert(sys_, lam, lam, 1.0, bad, INF)

    def test_overflowing_sum_or_difference_raises(self):
        # Atoms of weight 1e-200 keep every replica pattern finite (the
        # 1e308 cell's replicated weight underflows), so the overflow first
        # shows in lam + phi and in nu - psi.
        sys_ = make_system([np.array([1.0, 1e-200])] * 3, K3_EDGES)
        huge = np.ones((2, 2))
        huge[1, 1] = 1e308
        big = ones_family(sys_)
        big[(0, 1)] = edge_function(sys_, (0, 1), huge)
        neg = ones_family(sys_)
        neg[(0, 1)] = edge_function(sys_, (0, 1), np.where(huge > 1, -1e308, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInconsistency, match=r"lam \+ phi on edge \[0, 1\]"):
                sum_family_certificate(sys_, big, big, 1.0, 1e-300, INF)
            with pytest.raises(NumericalInconsistency, match=r"nu - psi on edge \[0, 1\]"):
                near_majorant_certificate(sys_, big, neg, 1.0, 1e-300, INF)

    def test_sum_family_eta_above_cap_is_false(self):
        sys_ = k3_system()
        lam = ones_family(sys_)
        phi = {e: constant_function(sys_, e, 0.5) for e in sys_.edges}
        cert = sum_family_certificate(sys_, lam, phi, 1.0, 0.5, INF, mode="exact")
        assert cert.hypotheses["eta_in_range"] is False
        assert cert.verdict == "false"

    def test_sum_family_exact_ones_instance(self):
        sys_ = k3_system()
        lam = ones_family(sys_)
        phi = {e: constant_function(sys_, e, 0.5) for e in sys_.edges}
        eta = 0.5 * math.exp(-3 * 8 * math.log(4.0))
        cert = sum_family_certificate(sys_, lam, phi, 1.0, eta, INF, mode="exact")
        assert all(cert.hypotheses.values())
        assert cert.verdict == "true"
        assert cert.deviation.eta == 0.0
        assert math.isclose(cert.constants["C_out"], 4.0 ** 6, rel_tol=1e-12)
        inner = cert.inner
        assert inner is not None and inner.verdict == "true"

    def test_near_majorant_exact_ones_instance(self):
        sys_ = k3_system()
        nu = ones_family(sys_)
        cert = near_majorant_certificate(sys_, nu, nu, 1.0, 0.05, INF, mode="exact")
        assert all(cert.hypotheses.values())
        assert cert.verdict == "true"
        assert math.isclose(cert.constants["eta_out"], 3 * 2 * 0.05, rel_tol=1e-12)

    def test_near_majorant_eta_too_big_is_false(self):
        sys_ = k3_system()
        nu = ones_family(sys_)
        cert = near_majorant_certificate(sys_, nu, nu, 1.0, 0.4, INF, mode="exact")
        assert cert.hypotheses["eta_in_range"] is False
        assert cert.verdict == "false"


class TestStackedEdgeNorms:
    """The theorem certificates' edge norms, against one public call per edge."""

    def families(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        sys_ = make_system([rng.uniform(0.2, 1.0, size=z) for z in (2, 3, 1)], K3_EDGES)
        nu, psi = (
            {e: edge_function(sys_, e, rng.uniform(lo, 2.0, size=sys_.edge_shape(e)))
             for e in sys_.edges}
            for lo in (0.5, 0.0)
        )
        return sys_, nu, psi

    @pytest.mark.parametrize("p", [Exponent(2.0), Exponent(3.5), INF], ids=repr)
    def test_sum_family(self, p):
        sys_, lam, phi = self.families()
        ell = ell_pseudorandom(1.5, p)
        # eta's derived constant is far above one, so no inner certificate runs.
        cert = sum_family_certificate(sys_, lam, phi, 1.5, 0.5, p)
        assert cert.inner is None
        norms, ok = {}, True
        for e in sys_.edges:
            v = lp_box_norm(sys_, e, phi[e], ell, p)
            norms[str(list(e))] = v
            if v > 1.5 + REL_TOL:
                ok = False
        assert cert.details["phi_box_lp_norms"] == norms
        assert cert.hypotheses["phi_box_lp_at_most_C"] is ok

    @pytest.mark.parametrize("p", [Exponent(2.0), Exponent(3.5), INF], ids=repr)
    def test_near_majorant(self, p):
        sys_, nu, psi = self.families()
        ell = ell_pseudorandom(1.5, p)
        cert = near_majorant_certificate(sys_, nu, psi, 1.5, 0.4, p)
        assert cert.inner is None
        nu_norms, psi_norms, nu_ok, psi_ok = {}, {}, True, True
        for e in sys_.edges:
            nb = lp_box_norm(sys_, e, nu[e], ell, p)
            pb = lp_box_norm(sys_, e, psi[e], ell, p)
            nu_norms[str(list(e))] = nb
            psi_norms[str(list(e))] = pb
            if not (nb >= 1.0 - REL_TOL and math.isfinite(nb)):
                nu_ok = False
            if pb > 1.5 + REL_TOL:
                psi_ok = False
        diffs, diff_ok = {}, True
        for e in sys_.edges:
            d = edge_function(sys_, e, nu[e].values - psi[e].values)
            diffs[str(list(e))] = box_norm(sys_, e, d, ell).value
            if diffs[str(list(e))] > cert.constants["difference_bound"] + REL_TOL:
                diff_ok = False
        assert cert.details["nu_box_lp_norms"] == nu_norms
        assert cert.details["psi_box_lp_norms"] == psi_norms
        assert cert.details["difference_box_norms"] == diffs
        assert cert.hypotheses["nu_box_lp_at_least_one"] is nu_ok
        assert cert.hypotheses["psi_box_lp_at_most_C"] is psi_ok
        assert cert.hypotheses["difference_box_small"] is diff_ok


class TestLemmaOracles:
    def test_majorant_gap_zero_when_equal(self):
        sys_ = k3_system()
        fam = perturbed_family(sys_, 6, 0.05)
        out = majorant_gap_correlation_sup(sys_, (0, 1), fam, fam, 2)
        assert out["value"] <= 1e-12
        assert out["certified"]
        assert len(out["selectors"]) == len(out["slots"]) == 4

    def test_centered_zero_on_ones(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        out = centered_family_correlation_sup(sys_, (0, 1), fam, fam, 2)
        assert out["value"] <= 1e-12

    def test_bounded_slot_mass_on_ones(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        out = bounded_slot_mass_sup(sys_, (0, 1), fam, fam, 2)
        assert math.isclose(out["value"], 1.0, rel_tol=1e-12)

    def test_replica_mass_none_bound_means_one(self):
        sys_ = k3_system()
        out = replica_mass_max(sys_, (0, 1), {"one": None}, 2)
        assert math.isclose(out["value"], 1.0, rel_tol=1e-12)
        assert out["selectors"] == ["one"] * 4

    def test_shifted_kernel_must_leave_base(self):
        sys_ = k3_system()
        fam = ones_family(sys_)
        with pytest.raises(MalformedProblem):
            shifted_majorant_gap_correlation_sup(
                sys_, (0, 1), (0, 1), 0, fam, fam, 2
            )

    def test_shifted_zero_when_equal(self):
        sys_ = k3_system()
        fam = perturbed_family(sys_, 7, 0.05)
        out = shifted_majorant_gap_correlation_sup(sys_, (0, 1), (0, 2), 1, fam, fam, 2)
        assert out["value"] <= 1e-12
        # the excluded (kernel edge, replica) pair must not appear as a slot
        assert [[0, 2], 1] not in out["slots"]


def _family_bound(bound_families, label, edge):
    fam = bound_families[label]
    return None if fam is None else fam[edge]


def _pairs(system, e, ell, exclude=None):
    return [(e2, w) for e2 in system.edges if e2 != e for w in range(ell) if (e2, w) != exclude]


def per_choice_correlation(system, e, kernel, bound_families, ell, kernel_replica=0,
                           exclude_pair=None, **kw):
    """Reference: one single-candidate SupProblem per selector choice.

    Returns what selector_correlation_sup should, and the mode of each choice.
    """
    pairs = _pairs(system, e, ell, exclude_pair)
    best, certified, modes = None, True, []
    for combo in itertools.product(sorted(bound_families), repeat=len(pairs)):
        slots = tuple(
            Slot(e2, w, ((lab, _family_bound(bound_families, lab, e2)),))
            for (e2, w), lab in zip(pairs, combo)
        )
        res = sup_multilinear(SupProblem(system, e, ell, kernel, slots, kernel_replica), **kw)
        modes.append(res.mode)
        certified = certified and res.certified
        if best is None or res.value > best["value"]:
            best = {
                "value": res.value,
                "selectors": list(combo),
                "slots": [[list(e2), w] for e2, w in pairs],
                "masks": [hex(m) for m in res.masks],
            }
    best["mode"] = "exact" if certified else "heuristic"
    best["certified"] = certified
    return best, modes


def per_choice_mass(system, e, bound_families, ell):
    """Reference: one grid and one product expectation per selector choice."""
    pairs = _pairs(system, e, ell)
    best = None
    for combo in itertools.product(sorted(bound_families), repeat=len(pairs)):
        grid = sup_grid(system, e, pairs)
        factors = []
        for (e2, w), lab in zip(pairs, combo):
            bound = _family_bound(bound_families, lab, e2)
            if bound is not None:
                factors.append(grid.lift(e2, bound.values, digits_for(e2, set(e), w)))
        val = grid.expect(factors)
        if best is None or val > best["value"]:
            best = {"value": val, "selectors": list(combo),
                    "slots": [[list(e2), w] for e2, w in pairs]}
    return best


def random_family(system, seed, low=0.0, high=1.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return {
        e: edge_function(system, e, rng.uniform(low, high, size=system.edge_shape(e)))
        for e in system.edges
    }


class TestSelectorChoicesMatchPerChoiceLoop:
    """One SupProblem with candidate bounds equals the per-choice loop, bit for bit."""

    def families(self, sys_, count):
        fams = {"nu": random_family(sys_, 31), "one": None, "psi": random_family(sys_, 32)}
        return dict(list(fams.items())[:count])

    @pytest.mark.parametrize("count", [2, 3])
    def test_k3_correlation(self, count):
        sys_ = k3_system()
        kernel = edge_function(sys_, (0, 1), random_family(sys_, 33, -1.0, 1.0)[(0, 1)].values)
        fams = self.families(sys_, count)
        got = selector_correlation_sup(sys_, (0, 1), kernel, fams, 2)
        want, modes = per_choice_correlation(sys_, (0, 1), kernel, fams, 2)
        assert emit_json(got) == emit_json(want)
        assert len(modes) == count ** 4 and got["certified"]

    @pytest.mark.parametrize("count", [2, 3])
    def test_k3_mass(self, count):
        sys_ = k3_system(3)
        fams = self.families(sys_, count)
        got = replica_mass_max(sys_, (0, 2), fams, 2)
        assert emit_json(got) == emit_json(per_choice_mass(sys_, (0, 2), fams, 2))

    def test_shifted_kernel_with_excluded_pair(self):
        sys_ = k3_system()
        fams = self.families(sys_, 3)
        kernel = edge_function(sys_, (0, 2), random_family(sys_, 34, -1.0, 1.0)[(0, 2)].values)
        got = selector_correlation_sup(
            sys_, (0, 1), kernel, fams, 2, kernel_replica=1, exclude_pair=((0, 2), 1)
        )
        want, modes = per_choice_correlation(
            sys_, (0, 1), kernel, fams, 2, kernel_replica=1, exclude_pair=((0, 2), 1)
        )
        assert emit_json(got) == emit_json(want)
        assert len(modes) == 3 ** 3 and [[0, 2], 1] not in got["slots"]

    def test_exact_tie_keeps_first_choice(self):
        # "unit" gives every slot the same rows as the constant-one bound,
        # so every choice ties exactly and the first, all "one", must win.
        sys_ = k3_system()
        kernel = edge_function(sys_, (0, 1), random_family(sys_, 35, -1.0, 1.0)[(0, 1)].values)
        fams = {"one": None, "unit": ones_family(sys_)}
        got = selector_correlation_sup(sys_, (0, 1), kernel, fams, 2)
        want, _ = per_choice_correlation(sys_, (0, 1), kernel, fams, 2)
        assert emit_json(got) == emit_json(want)
        assert got["selectors"] == ["one"] * 4 and got["value"] > 0.0
        mass = replica_mass_max(sys_, (0, 1), fams, 2)
        assert emit_json(mass) == emit_json(per_choice_mass(sys_, (0, 1), fams, 2))
        assert mass["selectors"] == ["one"] * 4

    def test_choices_split_between_exact_and_heuristic(self):
        # A zero bound prunes its choice at the root, so it is exact at any
        # cap; the all-"nu" choice runs out of a small budget.
        sys_ = k3_system()
        kernel = edge_function(sys_, (0, 1), random_family(sys_, 36, -1.0, 1.0)[(0, 1)].values)
        zero = {e: constant_function(sys_, e, 0.0) for e in sys_.edges}
        fams = {"nu": random_family(sys_, 37), "zero": zero}
        kw = dict(mode="auto", restarts=4, seed=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", 1 << 6)
            got = selector_correlation_sup(sys_, (0, 1), kernel, fams, 2, **kw)
            want, modes = per_choice_correlation(sys_, (0, 1), kernel, fams, 2, **kw)
            assert emit_json(got) == emit_json(want)
            assert modes.count("heuristic") == 1 and modes.count("exact") == 15
            assert not got["certified"] and got["mode"] == "heuristic"
            assert got["selectors"] == ["nu"] * 4
            with pytest.raises(SizeCapExceeded):
                selector_correlation_sup(sys_, (0, 1), kernel, fams, 2, mode="exact")
