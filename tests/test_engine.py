import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import engine
from boxlab.cutnorm import cut_norm, faces_of
from boxlab.engine import (
    CHUNK_ELEMS,
    Slot,
    SupProblem,
    SupResult,
    exact_boxed_max,
    heuristic_boxed_max,
    projection_rows,
    subset_rows,
    sup_multilinear,
)
from boxlab.errors import MalformedProblem, NumericalInconsistency, SizeCapExceeded
from boxlab.spaces import Grid, edge_function, make_system

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def mask_row_manual(rows, mask):
    out = [0.0] * len(rows[0])
    for t, row in enumerate(rows):
        if (mask >> t) & 1:
            for p, x in enumerate(row):
                out[p] += x
    return out


def brute_max(base, slot_rows):
    """Plain-Python enumeration of every vertex combination."""
    best = (-1.0, 0.0, None)
    sizes = [1 << r.shape[0] for r in slot_rows]

    def rec(masks):
        nonlocal best
        if len(masks) == len(slot_rows):
            total = vertex_value(base, slot_rows, masks)
            if abs(total) > best[0]:
                best = (abs(total), total, tuple(masks))
            return
        for m in range(sizes[len(masks)]):
            rec(masks + [m])

    rec([])
    return best


def vertex_value(base, slot_rows, masks):
    """Plain-Python objective at one vertex."""
    picked = [mask_row_manual(slot_rows[s].tolist(), m) for s, m in enumerate(masks)]
    total = 0.0
    for p in range(base.shape[0]):
        term = float(base[p])
        for row in picked:
            term *= row[p]
        total += term
    return total


def exact_at_chunk(base, rows, chunk):
    """exact_boxed_max with engine.CHUNK_ELEMS set to chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_ELEMS", chunk)
        return exact_boxed_max(base, rows)


def problem_rows(problem):
    """The base vector and per-slot (label, rows) candidates that sup_multilinear solves."""
    kernel = problem.kernel
    grid = engine.sup_grid(
        problem.system,
        problem.base_edge,
        [(kernel.edge, problem.kernel_replica)] + [(s.edge, s.replica) for s in problem.slots],
    )
    digits = engine.digits_for(kernel.edge, set(problem.base_edge), problem.kernel_replica)
    base_vec = grid.product([grid.lift(kernel.edge, kernel.values, digits)]).reshape(-1)
    return base_vec, engine._candidate_rows(problem, grid)


def _loop_sup(problem, mode="exact", restarts=32, seed=0, seeded=False):
    """The per-choice reference: one exact_boxed_max per candidate choice,
    auto falling back per choice.  Cold by default: no floor.  With seeded,
    every choice is seeded with the best value so far, as before the root
    screen: a choice pruned at its root adds its 0 and its vertices."""
    base_vec, candidates = problem_rows(problem)
    best, combos, certified = None, 0, True
    for choice in itertools.product(*candidates):
        rows = [r for _, r in choice]
        res = None
        if mode != "heuristic":
            floor = 0.0 if best is None or not seeded else best.value
            try:
                res = exact_boxed_max(base_vec, rows, floor=floor)
            except SizeCapExceeded:
                if mode == "exact":
                    raise
        if res is None:
            res = heuristic_boxed_max(base_vec, rows, restarts=restarts, seed=seed)
        combos += res.combos
        certified = certified and res.certified
        if best is None or res.value > best.value:
            best = dataclasses.replace(res, labels=tuple(label for label, _ in choice))
    return dataclasses.replace(best, mode="exact" if certified else "heuristic", combos=combos)


def _ascent_reference(base, slot_rows, init_masks, sigma):
    """Coordinate ascent of one restart and sign on sigma * value.

    The per-restart loop that the batched ascent replaced, kept as the
    reference for its arithmetic: the batch must give the same floats.
    """
    masks = list(init_masks)
    cur = [engine._mask_row(rows, m) for rows, m in zip(slot_rows, masks)]
    for _ in range(engine.MAX_CYCLES):
        changed = False
        for s, rows in enumerate(slot_rows):
            context = base.copy()
            for s2, vec in enumerate(cur):
                if s2 != s:
                    context *= vec
            coeff = np.sum(np.ascontiguousarray(rows * context[None, :]), axis=1)
            new_mask = 0
            for t in range(rows.shape[0]):
                if sigma * coeff[t] > 0.0:
                    new_mask |= 1 << t
            if new_mask != masks[s]:
                masks[s] = new_mask
                cur[s] = engine._mask_row(rows, new_mask)
                changed = True
        if not changed:
            break
    return engine._vertex_value(base, cur), tuple(masks)


def _heuristic_reference(base, slot_rows, restarts, seed):
    """heuristic_boxed_max as one ascent per restart and sign, one draw per restart and slot."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    combos = engine._total_combos(slot_rows)
    best = SupResult(-1.0, 0.0, tuple(0 for _ in slot_rows), "heuristic", combos, 0)
    for r in range(restarts):
        init = []
        for rows in slot_rows:
            bits = rng.integers(0, 2, size=rows.shape[0])
            init.append(int(sum(1 << t for t in range(rows.shape[0]) if bits[t])))
        for sigma in (1.0, -1.0):
            val, masks = _ascent_reference(base, slot_rows, init, sigma)
            if abs(val) > best.value:
                best = SupResult(abs(val), val, masks, "heuristic", combos, r + 1)
    return best


def same_result(got, want):
    """Every SupResult field equal, the sign of a zero `signed` included."""
    return got == want and math.copysign(1.0, got.signed) == math.copysign(1.0, want.signed)


@st.composite
def ascent_problems(draw):
    """0-4 slots of 1-4 atoms (up to 9 on one cell); bases and rows may hold -0.0."""
    rng = np.random.Generator(np.random.Philox(key=draw(seeds)))
    cells = draw(st.sampled_from([1, 2, 3, 5, 9, 17]))
    base = {
        "signed": lambda: rng.uniform(-1.0, 1.0, size=cells),
        "zero": lambda: np.zeros(cells),
        "negative_zeros": lambda: np.where(rng.uniform(size=cells) < 0.5, -0.0,
                                           rng.uniform(-1.0, 1.0, size=cells)),
    }[draw(st.sampled_from(["signed", "zero", "negative_zeros"]))]()
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        atoms = draw(st.integers(1, 9 if cells == 1 else 4))
        # Scales far apart make the order of every sum show in its float.
        scales = 10.0 ** rng.integers(-6, 7, size=(atoms, 1))
        full = rng.uniform(0.0, 1.0, size=(atoms, cells)) * scales
        full[rng.uniform(size=full.shape) < 0.5] = draw(st.sampled_from([0.0, -0.0]))
        rows.append(full)
    return base, rows


def cut_norm_rows(seed, k):
    """The base vector and face rows that cut_norm solves on a random k-edge."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    e = tuple(range(k))
    atoms = tuple(int(a) for a in rng.integers(1, 4 if k == 2 else 3, size=k, endpoint=True))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=a) for a in atoms], [e])
    f = edge_function(sys_, e, rng.uniform(-1.0, 1.0, size=atoms))
    problem = SupProblem(sys_, e, 1, f, tuple(Slot(face, 0) for face in faces_of(e)))
    base, candidates = problem_rows(problem)
    return base, [rows for ((_, rows),) in candidates]


def random_problem(seed, n_slots=2, cells=5, max_atoms=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    base = rng.uniform(-1, 1, size=cells)
    rows = []
    for _ in range(n_slots):
        atoms = int(rng.integers(1, max_atoms + 1))
        full = rng.uniform(0, 1, size=(atoms, cells))
        # zero out entries so rows look like sparse projections
        full[rng.uniform(size=full.shape) < 0.5] = 0.0
        rows.append(full)
    return base, rows


class TestSubsetRows:
    def test_masks_index_subset_sums(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = subset_rows(rows)
        assert out.shape == (4, 2)
        assert out[0].tolist() == [0.0, 0.0]
        assert out[1].tolist() == [1.0, 2.0]
        assert out[2].tolist() == [3.0, 4.0]
        assert out[3].tolist() == [4.0, 6.0]


class TestExactBoxedMax:
    @given(seeds)
    def test_matches_brute_force(self, seed):
        base, rows = random_problem(seed)
        want_abs, want_signed, _ = brute_max(base, rows)
        res = exact_boxed_max(base, rows)
        assert abs(res.value - want_abs) <= 1e-10 * max(1.0, want_abs)
        assert abs(res.signed - want_signed) <= 1e-10 * max(1.0, want_abs)
        assert res.mode == "exact"
        assert res.combos == (1 << rows[0].shape[0]) * (1 << rows[1].shape[0])

    @given(seeds)
    def test_masks_reproduce_value(self, seed):
        base, rows = random_problem(seed)
        res = exact_boxed_max(base, rows)
        total = 0.0
        for p in range(base.shape[0]):
            term = float(base[p])
            for s, m in enumerate(res.masks):
                term *= mask_row_manual(rows[s].tolist(), m)[p]
            total += term
        assert abs(total - res.signed) <= 1e-10 * max(1.0, abs(res.signed))

    def test_tie_prefers_smallest_masks(self):
        base = np.zeros(3)
        rows = [np.ones((2, 3)), np.ones((1, 3))]
        res = exact_boxed_max(base, rows)
        assert res.value == 0.0
        assert res.masks == (0, 0)

    def test_closed_form_tie_takes_smaller_mask(self):
        # Last-slot coefficients (1, -1, 0): the + and - sides tie at 1, and
        # atom 2's zero coefficient leaves it out; masks 0b001 and 0b010
        # tie, and the smaller wins, behind any earlier slots at full mask.
        base = np.array([1.0, -1.0, 0.5])
        last = np.eye(3)
        last[2, 2] = 0.0
        for n_before in range(3):
            rows = [np.ones((1, 3))] * n_before + [last]
            for chunk in (8, CHUNK_ELEMS):
                res = exact_at_chunk(base, rows, chunk)
                assert res.masks == (1,) * n_before + (0b001,)
                assert res.signed == 1.0

    def test_no_slots(self):
        base = np.array([0.5, -2.0])
        res = exact_boxed_max(base, [])
        assert res.value == 1.5 and res.signed == -1.5
        assert res.masks == ()

    def test_cap(self, monkeypatch):
        base = np.ones(2)
        rows = [np.ones((3, 2))]
        monkeypatch.setattr(engine, "COMBO_CAP", 4)
        with pytest.raises(SizeCapExceeded):
            exact_boxed_max(base, rows)

    @given(seeds, st.sampled_from([3, 4]))
    def test_branch_and_bound_matches_brute(self, seed, n_slots):
        # CHUNK_ELEMS=8 branches on every slot, so pruning happens at each
        # depth; the default evaluates small trees as one block.
        base, rows = random_problem(seed, n_slots=n_slots)
        want_abs, want_signed, want_masks = brute_max(base, rows)
        for chunk in (8, CHUNK_ELEMS):
            res = exact_at_chunk(base, rows, chunk)
            assert abs(res.value - want_abs) <= 1e-12 * max(1.0, want_abs)
            assert abs(res.signed - want_signed) <= 1e-12 * max(1.0, want_abs)
            if res.masks != want_masks:  # only another maximizer may differ
                tie = vertex_value(base, rows, res.masks)
                assert abs(abs(tie) - want_abs) <= 1e-12 * max(1.0, want_abs)

    @given(seeds)
    def test_chunked_recursion_agrees(self, seed):
        # Force the per-slot recursion branch with a tiny chunk budget.
        base, rows = random_problem(seed)
        full = exact_boxed_max(base, rows)
        small = exact_at_chunk(base, rows, 8)
        assert abs(full.value - small.value) <= 1e-10 * max(1.0, full.value)
        assert full.masks == small.masks


class TestAscentAndHeuristic:
    @given(seeds)
    def test_heuristic_never_exceeds_exact(self, seed):
        base, rows = random_problem(seed)
        exact = exact_boxed_max(base, rows)
        heur = heuristic_boxed_max(base, rows, restarts=8, seed=seed)
        assert heur.value <= exact.value + 1e-10 * max(1.0, exact.value)
        assert heur.mode == "heuristic"

    @given(seeds)
    def test_heuristic_deterministic(self, seed):
        base, rows = random_problem(seed)
        a = heuristic_boxed_max(base, rows, restarts=6, seed=3)
        b = heuristic_boxed_max(base, rows, restarts=6, seed=3)
        assert a == b

    def test_restart_validation(self):
        with pytest.raises(MalformedProblem):
            heuristic_boxed_max(np.zeros(2), [np.ones((1, 2))], restarts=0)

    def test_seed_validation(self):
        for seed in (-1, 1 << 128):
            with pytest.raises(MalformedProblem):
                heuristic_boxed_max(np.zeros(2), [np.ones((1, 2))], seed=seed)
        heuristic_boxed_max(np.zeros(2), [np.ones((1, 2))], seed=(1 << 128) - 1)

    @given(seeds)
    def test_ascent_reaches_a_vertex_value(self, seed):
        base, rows = random_problem(seed)
        res = heuristic_boxed_max(base, rows, restarts=1, seed=seed)
        assert same_result(res, _heuristic_reference(base, rows, 1, seed))
        total = vertex_value(base, rows, res.masks)
        assert abs(total - res.signed) <= 1e-10 * max(1.0, res.value)


class TestBatchedAscent:
    """heuristic_boxed_max runs every restart and sign as one batch; it must
    return exactly what one ascent per restart and sign returns."""

    @settings(max_examples=200)
    @given(ascent_problems(), st.integers(1, 9), seeds)
    def test_matches_reference(self, problem, restarts, seed):
        base, rows = problem
        got = heuristic_boxed_max(base, rows, restarts=restarts, seed=seed)
        assert same_result(got, _heuristic_reference(base, rows, restarts, seed))

    @settings(max_examples=40)
    @given(seeds, st.sampled_from([2, 3]), st.integers(1, 9))
    def test_cut_norm_rows_match_reference(self, seed, k, restarts):
        base, rows = cut_norm_rows(seed, k)
        got = heuristic_boxed_max(base, rows, restarts=restarts, seed=seed)
        assert same_result(got, _heuristic_reference(base, rows, restarts, seed))

    @pytest.mark.parametrize("n_slots", [0, 3])
    def test_zero_base_ties_to_the_first_restart(self, n_slots):
        rows = [np.ones((2, 4))] * n_slots
        got = heuristic_boxed_max(np.zeros(4), rows, restarts=5, seed=7)
        assert got.restarts_used == 1 and got.signed == 0.0
        assert same_result(got, _heuristic_reference(np.zeros(4), rows, 5, 7))

    def test_plus_sign_wins_a_tie(self):
        # sigma = +1 reaches +1 on atom 0 and sigma = -1 reaches -1 on atom 1.
        got = heuristic_boxed_max(np.array([1.0, -1.0]), [np.eye(2)], restarts=3, seed=0)
        assert (got.signed, got.masks, got.restarts_used) == (1.0, (1,), 1)
        assert same_result(got, _heuristic_reference(np.array([1.0, -1.0]), [np.eye(2)], 3, 0))

    def test_one_cell_sums_as_mask_row(self):
        # On one cell np.sum pairs up the ten picked atoms and gets 1 + 4
        # ulps; added in order, each half ulp would round away and leave 1.
        rows = [np.array([[1.0]] + [[2.0**-53]] * 9)]
        got = heuristic_boxed_max(np.ones(1), rows, restarts=1, seed=0)
        assert got.masks == ((1 << 10) - 1,)
        assert got.signed == float(engine._mask_row(rows[0], (1 << 10) - 1)[0]) == 1 + 2.0**-50
        assert same_result(got, _heuristic_reference(np.ones(1), rows, 1, 0))

    @settings(max_examples=40)
    @given(seeds, st.integers(1, 9), st.sampled_from([1, 60, 200]))
    def test_restart_blocks_change_nothing(self, seed, restarts, chunk):
        # A 3x3 cut norm is 54 elements per restart: chunk 1 and 60 run one
        # restart per block, chunk 200 three.
        base, rows = cut_norm_rows(seed, 2)
        want = _heuristic_reference(base, rows, restarts, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "CHUNK_ELEMS", chunk)
            got = heuristic_boxed_max(base, rows, restarts=restarts, seed=seed)
        assert same_result(got, want)

    def test_peak_memory_past_one_block(self):
        # 20,000 restarts of a 3x3 cut norm run in blocks of 1,213; as one
        # batch, a slot step's product alone would take 8.6 MB.
        sys_ = make_system([np.ones(3) / 3] * 2, [(0, 1)])
        rng = np.random.Generator(np.random.Philox(key=3))
        f = edge_function(sys_, (0, 1), rng.uniform(-1.0, 1.0, size=(3, 3)))
        cut_norm(sys_, (0, 1), f, mode="heuristic", restarts=1)  # warm the imports
        assert 20_000 * 2 * 3 * 9 > 16 * CHUNK_ELEMS
        tracemalloc.start()
        try:
            got = cut_norm(sys_, (0, 1), f, mode="heuristic", restarts=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few arrays of one block (0.5 MB each) at a time.
        assert peak < 4 * 8 * CHUNK_ELEMS
        assert got.mode == "heuristic"


class TestProjectionRows:
    def test_rows_are_face_indicators(self):
        # Grid (2, 3); face (1,) reads axis 1 with bound [1, 2, 3].
        sys_ = make_system([np.ones(2) / 2, np.ones(3) / 3], [(0, 1)])
        grid = Grid(sys_, [(0, 0), (1, 0)])
        rows = projection_rows(grid, (1,), (0,), np.array([1.0, 2.0, 3.0]))
        assert rows.shape == (3, 6)
        for cell in range(6):
            axis1 = cell % 3
            for t in range(3):
                want = float(t + 1) if axis1 == t else 0.0
                assert rows[t, cell] == want

    def test_two_axis_face_row_major(self):
        sys_ = make_system([np.ones(2) / 2] * 2, [(0, 1)])
        grid = Grid(sys_, [(0, 0), (1, 0)])
        rows = projection_rows(grid, (0, 1), (0, 0), np.ones((2, 2)))
        assert rows.shape == (4, 4)
        # cell index equals atom index here, so rows form an identity.
        assert np.array_equal(rows, np.eye(4))

    def test_replica_digit_one(self):
        # Grid keys (0, 0), (1, 0), (1, 1): shape (2, 2, 2).  The face
        # (0, 1) at digits (0, 1) reads axes 0 and 2, not axis 1.
        sys_ = make_system([np.ones(2) / 2] * 2, [(0, 1)])
        grid = Grid(sys_, [(0, 0), (1, 0), (1, 1)])
        bound = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows = projection_rows(grid, (0, 1), (0, 1), bound)
        assert rows.shape == (4, 8)
        for cell in range(8):
            atom = 2 * (cell // 4) + cell % 2
            for t in range(4):
                assert rows[t, cell] == (bound.reshape(-1)[t] if t == atom else 0.0)


def k3_problem(kernel_values, atoms):
    """Base edge (0, 1) of K3; unit-bounded slots on (0, 2) and (1, 2) at
    replicas 0 and 1, so 4 slots of atoms**2 atoms each."""
    sys_ = make_system([np.ones(atoms) / atoms] * 3, [(0, 1), (0, 2), (1, 2)])
    kernel = edge_function(sys_, (0, 1), kernel_values)
    slots = tuple(Slot(e, w) for e in ((0, 2), (1, 2)) for w in (0, 1))
    return SupProblem(sys_, (0, 1), 2, kernel, slots)


class TestAutoBudget:
    def test_zero_base_past_cap_is_exact(self, monkeypatch):
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 10)
        problem = k3_problem(np.zeros((3, 3)), 3)
        res = sup_multilinear(problem, mode="auto")
        assert res.combos == 1 << 36
        assert res.value == 0.0 and res.certified and res.mode == "exact"
        assert res.masks == (0, 0, 0, 0)

    def test_exact_past_cap_closes_within_budget(self, monkeypatch):
        # Past the cap exact refuses only when the budget runs out; a zero
        # kernel is pruned at the root.
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 10)
        problem = k3_problem(np.zeros((3, 3)), 3)
        res = sup_multilinear(problem, mode="exact")
        assert res.combos == 1 << 36
        assert res.value == 0.0 and res.certified and res.mode == "exact"
        assert res.masks == (0, 0, 0, 0)

    def test_auto_past_cap_runs_exact_boxed_max(self, monkeypatch):
        # The budgeted search goes through the public entry point, so
        # anything wrapping exact_boxed_max sees it; it reads the cap then.
        calls = []
        real = engine.exact_boxed_max

        def spy(base, rows, **kw):
            calls.append(engine.COMBO_CAP)
            return real(base, rows, **kw)

        monkeypatch.setattr(engine, "exact_boxed_max", spy)
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 10)
        res = sup_multilinear(k3_problem(np.zeros((3, 3)), 3), mode="auto")
        assert calls == [1 << 10] and res.certified
        rng = np.random.Generator(np.random.Philox(key=3))
        problem = k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2)
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 6)
        res = sup_multilinear(problem, mode="auto", restarts=4)
        assert calls == [1 << 10, 1 << 6] and res.mode == "heuristic"

    def test_budget_exhausted_falls_back_to_heuristic(self, monkeypatch):
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 6)
        rng = np.random.Generator(np.random.Philox(key=3))
        problem = k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2)
        res = sup_multilinear(problem, mode="auto", restarts=4)
        assert res.combos == 1 << 16
        assert res.mode == "heuristic" and not res.certified
        assert res.restarts_used >= 1
        with pytest.raises(SizeCapExceeded):
            sup_multilinear(problem, mode="exact")

    @pytest.mark.parametrize("n_ones", [2, 3])
    def test_pruned_prefixes_count_against_budget(self, n_ones, monkeypatch):
        # A positive kernel on 16 atoms, one slot reading them one by one
        # and n_ones one-atom slots: the value at a vertex is the first
        # slot's popcount over 16.  After the first block of first-slot
        # masks, the incumbent prunes nearly every later mask, so few
        # prefixes are closed; but all 2**16 bounds are evaluated (at the
        # leaves with 2 one-atom slots, at an inner node with 3), and a
        # budget of 2**16 must run out.
        atoms = 16
        sys_ = make_system([np.ones(atoms) / atoms, np.ones(1)], [(0,), (0, 1), (1,)])
        kernel = edge_function(sys_, (0,), np.ones(atoms))
        slots = (Slot((0, 1), 0),) + tuple(Slot((1,), w) for w in range(n_ones))
        problem = SupProblem(sys_, (0,), n_ones, kernel, slots)
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 16)
        res = sup_multilinear(problem, mode="auto", restarts=1)
        assert res.combos == 1 << (16 + n_ones)
        assert res.mode == "heuristic" and not res.certified
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 17)
        res = sup_multilinear(problem, mode="auto")
        assert res.mode == "exact" and res.value == 1.0
        assert res.masks == (0xFFFF,) + (1,) * n_ones


class TestCandidateBounds:
    def test_choices_share_one_problem(self):
        # Slot (0, 2) at replica 0 may be bounded by 1 or by 2; scaling one
        # slot scales the value, so the "two" choice wins with the same masks.
        rng = np.random.Generator(np.random.Philox(key=9))
        problem = k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2)
        sys_ = problem.system
        two = edge_function(sys_, (0, 2), np.full((2, 2), 2.0))
        slots = (Slot((0, 2), 0, (("one", None), ("two", two))),) + problem.slots[1:]
        res = sup_multilinear(SupProblem(sys_, (0, 1), 2, problem.kernel, slots))
        single = sup_multilinear(problem)
        assert res.labels == ("two", "", "", "")
        assert res.masks == single.masks and res.value == 2.0 * single.value
        assert res.combos == 2 * single.combos
        assert res.certified and res.restarts_used == 0
        assert single.labels == ("",) * 4

    def test_one_choice_is_the_engine_result(self, monkeypatch):
        calls = []
        real = engine.exact_boxed_max

        def spy(base, rows, **kw):
            out = real(base, rows, **kw)
            calls.append(out)
            return out

        monkeypatch.setattr(engine, "exact_boxed_max", spy)
        rng = np.random.Generator(np.random.Philox(key=10))
        res = sup_multilinear(k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2))
        assert len(calls) == 1
        assert res == dataclasses.replace(calls[0], labels=("",) * 4)


# Slot pool of the drawn problems: base edge (0, 1) of K3, slots on the
# other two edges at replicas 0 and 1.
SLOT_POOL = (((0, 2), 0), ((1, 2), 0), ((0, 2), 1), ((1, 2), 1))
BOUND_KINDS = ("one", "ones", "rand", "half", "big")


class TestRangeCheck:
    @staticmethod
    def problem(kernel, scale):
        """k3_problem on 2 atoms with a second candidate, `scale` times one, on every slot."""
        base = k3_problem(np.full((2, 2), kernel), 2)
        sys_ = base.system
        slots = tuple(
            Slot(s.edge, s.replica,
                 (("one", None), ("big", edge_function(sys_, s.edge, np.full((2, 2), scale)))))
            for s in base.slots
        )
        return SupProblem(sys_, (0, 1), 2, base.kernel, slots)

    @pytest.mark.parametrize("mode", ["exact", "auto", "heuristic"])
    @pytest.mark.parametrize("kernel", [0.0, 1.0])
    def test_overflow_refused_before_any_search(self, monkeypatch, mode, kernel):
        # Four slots bounded by 1e100 reach 1e400 on every cell, so even a
        # zero kernel would meet 0 * inf in a search.
        def no_search(*args, **kw):
            raise AssertionError("a search ran")

        monkeypatch.setattr(engine, "exact_boxed_max", no_search)
        monkeypatch.setattr(engine, "heuristic_boxed_max", no_search)
        with pytest.raises(NumericalInconsistency, match=r"edge \[0, 1\]"):
            sup_multilinear(self.problem(kernel, 1e100), mode=mode)

    def test_large_but_in_range_is_solved(self):
        # Four slots bounded by 1e70: every product stays below 1e281.
        res = sup_multilinear(self.problem(1.0, 1e70))
        assert res.labels == ("big",) * 4 and res.certified
        assert math.isclose(res.value, 1e280, rel_tol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "auto", "heuristic"])
    def test_no_slots_is_the_kernels_mean(self, mode):
        # Nothing to optimize, and no row sum for the range check to take.
        res = sup_multilinear(dataclasses.replace(self.problem(-0.5, 2.0), slots=()), mode=mode)
        assert (res.value, res.signed, res.masks, res.combos) == (0.5, -0.5, (), 1)


@st.composite
def sup_problems(draw):
    """Random candidate-bound problems: 1-3 atoms per vertex, 1-4 slots of
    at most 14 atoms in all, 1-3 candidates per slot.  "ones" is an explicit all-ones bound, so it
    ties "one" exactly; kernels may be zero or all negative."""
    seed = draw(seeds)
    atoms = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    rng = np.random.Generator(np.random.Philox(key=seed))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=a) for a in atoms],
                       [(0, 1), (0, 2), (1, 2)])
    placed = draw(st.lists(st.sampled_from(SLOT_POOL), min_size=1, max_size=4, unique=True))
    slots, total_atoms = [], 0
    for edge, replica in placed:
        shape = sys_.edge_shape(edge)
        total_atoms += int(np.prod(shape))
        if slots and total_atoms > 14:  # keep every search small
            break
        kinds = draw(st.lists(st.sampled_from(BOUND_KINDS), min_size=1, max_size=3,
                              unique=True))
        bounds = []
        for kind in kinds:
            values = {
                "one": None,
                "ones": np.ones(shape),
                "rand": rng.uniform(0.0, 2.0, size=shape),
                "half": np.full(shape, 0.5),
                "big": rng.uniform(1.0, 3.0, size=shape),
            }[kind]
            bounds.append((kind, None if values is None else edge_function(sys_, edge, values)))
        slots.append(Slot(edge, replica, tuple(bounds)))
    kernel_kind = draw(st.sampled_from(["signed", "zero", "negative", "integer"]))
    shape = sys_.edge_shape((0, 1))
    values = {
        "signed": lambda: rng.uniform(-1.0, 1.0, size=shape),
        "zero": lambda: np.zeros(shape),
        "negative": lambda: -rng.uniform(0.1, 1.0, size=shape),
        "integer": lambda: rng.integers(-1, 2, size=shape).astype(float),
    }[kernel_kind]()
    kernel = edge_function(sys_, (0, 1), values)
    return SupProblem(sys_, (0, 1), 2, kernel, tuple(slots))


def seeded_or_cap(problem, **kw):
    """sup_multilinear's result, or SizeCapExceeded when it raised."""
    try:
        return sup_multilinear(problem, **kw)
    except SizeCapExceeded as exc:
        return exc


class TestSearchContext:
    @settings(max_examples=40)
    @given(sup_problems())
    def test_matches_per_choice_loop(self, problem):
        want = _loop_sup(problem)
        assert sup_multilinear(problem) == want
        assert sup_multilinear(problem, mode="auto", restarts=2) == want

    @settings(max_examples=40)
    @given(sup_problems(), st.sampled_from([1, 1 << 4, 1 << 8]))
    def test_tiny_caps_only_move_heuristic_to_exact(self, problem, cap):
        # A seeded choice does no more work than a cold one, so it may now
        # finish where the loop ran out of budget; nothing else may move.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", cap)
            want = _loop_sup(problem, mode="auto", restarts=2)
            got = sup_multilinear(problem, mode="auto", restarts=2)
            assert got.combos == want.combos
            if got != want:
                assert want.mode == "heuristic"
                assert got.value >= want.value * (1.0 - 1e-12)
            if got.mode == "heuristic":
                assert want.mode == "heuristic"
            try:
                want = _loop_sup(problem)
            except SizeCapExceeded:
                got = seeded_or_cap(problem)
                assert isinstance(got, SizeCapExceeded) or got.mode == "exact"
            else:
                assert sup_multilinear(problem) == want

    @given(seeds, st.sampled_from([3, 4]), st.floats(0.0, 1.5))
    def test_floor_keeps_results_above_it(self, seed, n_slots, scale):
        # Past the floor the seeded search is the cold one; below it the
        # value stays at most the floor, and it never needs more budget.
        base, rows = random_problem(seed, n_slots=n_slots)
        cold = exact_boxed_max(base, rows)
        for floor in (scale * cold.value, cold.value, np.nextafter(cold.value, 0.0)):
            seeded = exact_boxed_max(base, rows, floor=floor)
            if cold.value > floor:
                assert seeded == cold
            else:
                assert seeded.value <= floor
            for cap in (1 << 4, 1 << 6, 1 << 8):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "COMBO_CAP", cap)
                    try:
                        exact_boxed_max(base, rows)
                    except SizeCapExceeded:
                        continue
                    exact_boxed_max(base, rows, floor=floor)

    def test_each_table_built_once_per_search(self, monkeypatch):
        # A 16-element chunk splits each enumerated slot's masks into two
        # blocks and closes one row at a time, so the search reads every
        # low table and the pair rows many times but builds each once.
        rng = np.random.Generator(np.random.Philox(key=11))
        base = rng.uniform(-1.0, 1.0, size=4)
        slot_rows = [rng.uniform(0.0, 1.0, size=(3, 4)) for _ in range(5)]
        built, low_reads, pair_reads = [], [], []
        real_subset, real_low, real_pair = (
            engine.subset_rows, engine._Search._low_table, engine._Search._pair)

        def spy_subset(rows):
            built.extend(d for d, r in enumerate(slot_rows) if np.shares_memory(rows, r))
            return real_subset(rows)

        def spy_low(search, d):
            low_reads.append(d)
            return real_low(search, d)

        def spy_pair(search):
            pair_reads.append(real_pair(search))
            return pair_reads[-1]

        want = exact_boxed_max(base, slot_rows)
        monkeypatch.setattr(engine, "CHUNK_ELEMS", 16)
        monkeypatch.setattr(engine, "subset_rows", spy_subset)
        monkeypatch.setattr(engine._Search, "_low_table", spy_low)
        monkeypatch.setattr(engine._Search, "_pair", spy_pair)
        assert exact_boxed_max(base, slot_rows) == want
        assert sorted(built) == sorted(set(low_reads)) == [0, 1, 2]
        assert len(low_reads) > 3
        assert len(pair_reads) > 1 and all(p is pair_reads[0] for p in pair_reads)

    def test_tying_choice_keeps_the_first(self):
        # "one" and "ones" bound every slot identically, so all four
        # choices tie exactly: the first, ("one", "one"), must win.
        rng = np.random.Generator(np.random.Philox(key=4))
        base = k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2)
        sys_ = base.system
        slots = tuple(
            Slot(s.edge, s.replica,
                 (("one", None), ("ones", edge_function(sys_, s.edge, np.ones((2, 2))))))
            for s in base.slots[:2]
        )
        problem = SupProblem(sys_, (0, 1), 2, base.kernel, slots)
        res = sup_multilinear(problem)
        assert res.labels == ("one", "one")
        assert res == _loop_sup(problem)


@st.composite
def selector_problems(draw):
    """C2b and proof-oracle sup problems on K3 with 1 or 2 atoms per vertex.

    "c2b": kernel nu - psi, bounds nu or one, C2B_REPLICAS replicas.
    "gap": bounds nu, one or psi at ell = 2; "shifted" moves its kernel to
    another edge's replica and leaves that slot out.  An edge's nu may be
    all ones, so its nu and one bounds tie exactly; a kernel may be +0.0
    (nu = psi) or -0.0 everywhere, so every choice is 0 and the first one's
    signed zero must survive; a first nu bound may be zero.
    """
    from boxlab.pseudo import C2B_REPLICAS, _selector_slots

    rng = np.random.Generator(np.random.Philox(key=draw(seeds)))
    atoms = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=a) for a in atoms],
                       [(0, 1), (0, 2), (1, 2)])
    nu, psi = {}, {}
    for e in sys_.edges:
        shape = sys_.edge_shape(e)
        nu_kind = draw(st.sampled_from(["rand", "ones", "zero"]))
        nu[e] = edge_function(sys_, e, {
            "rand": lambda: rng.uniform(0.0, 2.0, size=shape),
            "ones": lambda: np.ones(shape),
            "zero": lambda: np.zeros(shape),
        }[nu_kind]())
        psi[e] = edge_function(sys_, e, rng.uniform(0.0, 2.0, size=shape))
    kind = draw(st.sampled_from(["c2b", "gap", "shifted"]))
    base, kernel_edge, replica, exclude = (0, 1), (0, 1), 0, None
    ell = C2B_REPLICAS if kind == "c2b" else 2
    families = {"nu": nu, "one": None} if kind == "c2b" else {"nu": nu, "one": None, "psi": psi}
    if kind == "shifted":
        kernel_edge = draw(st.sampled_from([(0, 2), (1, 2)]))
        replica = draw(st.integers(0, ell - 1))
        exclude = (kernel_edge, replica)
    shape = sys_.edge_shape(kernel_edge)
    kernel = {
        "diff": lambda: nu[kernel_edge].values - psi[kernel_edge].values,
        "zero": lambda: np.zeros(shape),
        "negative_zero": lambda: np.full(shape, -0.0),
    }[draw(st.sampled_from(["diff", "diff", "zero", "negative_zero"]))]()
    slots = _selector_slots(sys_, base, families, ell, exclude)
    return SupProblem(sys_, base, ell, edge_function(sys_, kernel_edge, kernel), slots, replica)


class TestChoiceScreen:
    @settings(max_examples=40)
    @given(selector_problems(), st.sampled_from([None, 1 << 4, 1 << 8]))
    def test_matches_per_choice_loop(self, problem, cap):
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(engine, "COMBO_CAP", cap)
            for kw in ({"mode": "exact"}, {"mode": "auto", "restarts": 2}):
                try:
                    want = _loop_sup(problem, seeded=True, **kw)
                except SizeCapExceeded:
                    with pytest.raises(SizeCapExceeded):
                        sup_multilinear(problem, **kw)
                    continue
                assert same_result(sup_multilinear(problem, **kw), want)

    @settings(max_examples=40)
    @given(sup_problems())
    def test_matches_per_choice_loop_on_drawn_bounds(self, problem):
        assert same_result(sup_multilinear(problem), _loop_sup(problem, seeded=True))
        assert same_result(sup_multilinear(problem, mode="auto", restarts=2),
                           _loop_sup(problem, mode="auto", restarts=2, seeded=True))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_kernel_keeps_the_first_choice(self, monkeypatch, zero):
        # Every root bound of a zero kernel is 0, so only the first choice
        # runs a search, and its result, signed zero included, is the answer.
        calls = []
        real = engine.exact_boxed_max

        def spy(base, rows, **kw):
            calls.append(kw["floor"])
            return real(base, rows, **kw)

        problem = TestRangeCheck.problem(zero, 2.0)
        want = _loop_sup(problem, seeded=True)
        monkeypatch.setattr(engine, "exact_boxed_max", spy)
        res = sup_multilinear(problem)
        assert calls == [0.0]
        assert res.value == 0.0 and res.labels == ("one",) * 4 and res.combos == 16 << 16
        assert same_result(res, want)

    @settings(max_examples=40)
    @given(selector_problems())
    def test_roots_equal_each_searchs_own(self, problem):
        base_vec, candidates = problem_rows(problem)
        bounds, margins = engine._choice_roots(
            base_vec, candidates, engine._row_sums(candidates))
        for index, choice in enumerate(itertools.product(*candidates)):
            rows = [r for _, r in choice]
            search = engine._Search(base_vec, rows, None)
            bound, margin = engine._roots(
                base_vec, search.reach[0][None, :], search.roundings(rows, search.cells))
            assert (bounds[index], margins[index]) == (bound[0], margin[0])

    def test_searches_inside_the_floor_margin_still_run(self, monkeypatch):
        # A "near" bound 100 ulps below one on a single slot puts a choice's
        # root bound just below the first choice's value but inside its
        # floor margin, so its search runs, as every search did before the
        # screen; two "near" slots put it below the margin, and it is skipped.
        near = 1.0 - 100 * np.finfo(np.float64).eps
        base = k3_problem(np.ones((2, 2)), 2)
        sys_ = base.system
        slots = tuple(
            Slot(s.edge, s.replica,
                 (("one", None), ("near", edge_function(sys_, s.edge, np.full((2, 2), near)))))
            for s in base.slots
        )
        problem = SupProblem(sys_, (0, 1), 2, base.kernel, slots)
        base_vec, candidates = problem_rows(problem)
        bounds, margins = engine._choice_roots(
            base_vec, candidates, engine._row_sums(candidates))
        floor = sup_multilinear(k3_problem(np.ones((2, 2)), 2)).value
        inside = [i for i in range(16) if floor - margins[i] < bounds[i] <= floor]
        assert inside == [1, 2, 4, 8]  # exactly one slot at "near"
        calls = []
        real = engine.exact_boxed_max

        def spy(base, rows, **kw):
            calls.append(kw["floor"])
            return real(base, rows, **kw)

        want = _loop_sup(problem, seeded=True)
        monkeypatch.setattr(engine, "exact_boxed_max", spy)
        assert same_result(sup_multilinear(problem), want)
        assert calls == [0.0] + [floor] * 4

    def test_split_between_exact_and_heuristic(self, monkeypatch):
        # At a cap of 2**6 the first choice runs out of budget; the screen
        # then skips every choice that cannot beat the heuristic's value.
        rng = np.random.Generator(np.random.Philox(key=3))
        base = k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2)
        sys_ = base.system
        zero = edge_function(sys_, (0, 2), np.zeros((2, 2)))
        slots = (Slot((0, 2), 0, (("one", None), ("zero", zero))),) + base.slots[1:]
        problem = SupProblem(sys_, (0, 1), 2, base.kernel, slots)
        monkeypatch.setattr(engine, "COMBO_CAP", 1 << 6)
        res = sup_multilinear(problem, mode="auto", restarts=4)
        assert res.mode == "heuristic" and res.labels[0] == "one"
        assert same_result(res, _loop_sup(problem, mode="auto", restarts=4, seeded=True))

    def test_one_choice_skips_the_screen(self, monkeypatch):
        def no_screen(*args):
            raise AssertionError("screened a one-choice problem")

        monkeypatch.setattr(engine, "_choice_roots", no_screen)
        rng = np.random.Generator(np.random.Philox(key=10))
        sup_multilinear(k3_problem(rng.uniform(-1, 1, size=(2, 2)), 2))

    def test_screen_blocks_change_nothing(self, monkeypatch):
        # Blocks of one choice each give the same bounds and margins.
        rng = np.random.Generator(np.random.Philox(key=5))
        problem = TestRangeCheck.problem(0.0, 2.0)
        problem = dataclasses.replace(
            problem, kernel=edge_function(problem.system, (0, 1), rng.uniform(-1, 1, (2, 2))))
        base_vec, candidates = problem_rows(problem)
        sums = engine._row_sums(candidates)
        whole = engine._choice_roots(base_vec, candidates, sums)
        monkeypatch.setattr(engine, "CHUNK_ELEMS", 1)
        split = engine._choice_roots(base_vec, candidates, sums)
        assert [a.tolist() for a in whole] == [a.tolist() for a in split]
        assert same_result(sup_multilinear(problem), _loop_sup(problem, seeded=True))

    @pytest.mark.parametrize("name, calls", [
        ("near-majorant-end-to-end", 42),
        ("certifier-examples", 24),
        ("sum-family-end-to-end", 6),
    ])
    def test_exact_calls_per_item(self, monkeypatch, name, calls):
        # The per-choice loop made 861, 204 and 51 calls: one per choice.
        from boxlab import suite

        seen = []
        real = engine.exact_boxed_max

        def spy(*args, **kw):
            seen.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(engine, "exact_boxed_max", spy)
        item = next(it for it in suite.default_suite() if it["name"] == name)
        assert suite.run_item(item).holds
        assert len(seen) == calls
