import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import spaces
from boxlab.boxnorm import box_power_direct
from boxlab.errors import (
    EmptyHypergraph,
    EmptySpace,
    NonPositiveWeight,
    POutOfRange,
    ShapeMismatch,
    SizeCapExceeded,
)
from boxlab.spaces import (
    INF,
    Exponent,
    Grid,
    _fold,
    _grid_lp_norms,
    as_edge,
    checked_power,
    constant_function,
    edge_function,
    expectation,
    lp_norm,
    make_prob_space,
    make_system,
    max_degree,
)

weights_st = st.lists(
    st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=4
)


class TestProbSpace:
    def test_normalizes_to_one(self):
        sp = make_prob_space([2.0, 2.0])
        assert sp.weights.tolist() == [0.5, 0.5]
        assert sp.size == 2

    @given(weights_st)
    def test_normalization_property(self, raw):
        sp = make_prob_space(raw)
        assert math.isclose(float(np.sum(sp.weights)), 1.0, rel_tol=1e-12)
        assert np.all(sp.weights > 0.0)

    def test_rejects_empty(self):
        with pytest.raises(EmptySpace):
            make_prob_space([])

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(NonPositiveWeight):
            make_prob_space([1.0, 0.0])
        with pytest.raises(NonPositiveWeight):
            make_prob_space([1.0, -2.0])
        with pytest.raises(NonPositiveWeight):
            make_prob_space([1.0, math.inf])

    def test_weights_frozen(self):
        sp = make_prob_space([1.0, 3.0])
        with pytest.raises(ValueError):
            sp.weights[0] = 0.9


class TestEdgesAndSystems:
    def test_as_edge_canonicalizes(self):
        assert as_edge([0, 2, 5]) == (0, 2, 5)

    def test_as_edge_rejects_disorder_and_duplicates(self):
        with pytest.raises(ShapeMismatch):
            as_edge([2, 1])
        with pytest.raises(ShapeMismatch):
            as_edge([1, 1])
        with pytest.raises(EmptyHypergraph):
            as_edge([])

    def test_make_system_validates_edges(self):
        with pytest.raises(ShapeMismatch):
            make_system([[1.0], [1.0]], [(0, 2)])
        with pytest.raises(ShapeMismatch):
            make_system([[1.0], [1.0]], [(0, 1), (0, 1)])

    def test_make_system_accepts_ready_spaces(self):
        sp = make_prob_space([1.0, 1.0])
        sys_ = make_system([sp, [2.0, 2.0]], [(0, 1)])
        assert sys_.n == 2
        assert sys_.edge_shape((0, 1)) == (2, 2)

    def test_uniformity_and_degree(self):
        sys_ = make_system([[1.0]] * 3, [(0, 1), (1, 2), (0, 2)])
        assert sys_.uniformity() == 2
        assert max_degree(sys_) == 2
        mixed = make_system([[1.0]] * 3, [(0,), (0, 1, 2)])
        assert mixed.uniformity() is None
        with pytest.raises(EmptyHypergraph):
            max_degree(make_system([[1.0]], []))


class TestEdgeFunction:
    def test_shape_checked(self):
        sys_ = make_system([[1.0, 1.0], [1.0, 1.0, 1.0]], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.zeros((2, 3)))
        assert f.arity == 2
        with pytest.raises(ShapeMismatch):
            edge_function(sys_, (0, 1), np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            edge_function(sys_, (0, 1), [[1.0, 2.0, np.nan], [0.0, 0.0, 0.0]])

    def test_constant_function(self):
        sys_ = make_system([[1.0, 1.0]], [(0,)])
        f = constant_function(sys_, (0,), 3.5)
        assert f.values.tolist() == [3.5, 3.5]


class TestExponent:
    def test_range(self):
        with pytest.raises(POutOfRange):
            Exponent(0.5)
        with pytest.raises(POutOfRange):
            Exponent(float("nan"))
        assert Exponent(1.0).value == 1.0
        assert INF.is_inf

    def test_conjugate_pairing(self):
        assert Exponent(2.0).conjugate() == Exponent(2.0)
        assert Exponent(4.0).conjugate() == Exponent(4.0 / 3.0)
        assert Exponent(1.0).conjugate().is_inf
        assert INF.conjugate() == Exponent(1.0)

    @given(st.floats(min_value=1.0 + 1e-6, max_value=100.0))
    def test_conjugate_involution(self, p):
        e = Exponent(p)
        back = e.conjugate().conjugate()
        assert math.isclose(back.value, p, rel_tol=1e-12)
        assert math.isclose(e.reciprocal() + e.conjugate().reciprocal(), 1.0,
                            rel_tol=1e-12)

    def test_reciprocal_inf(self):
        assert INF.reciprocal() == 0.0

    def test_parse(self):
        assert Exponent.parse("inf").is_inf
        assert Exponent.parse("Infinity").is_inf
        assert Exponent.parse("2.5").value == 2.5
        assert Exponent.parse(Exponent(3.0)).value == 3.0
        with pytest.raises(POutOfRange):
            Exponent.parse("zebra")

    def test_immutability(self):
        e = Exponent(2.0)
        with pytest.raises(AttributeError):
            e.value = 3.0


class TestCheckedPower:
    def test_guard(self):
        assert checked_power(2, 10) == 1024
        assert checked_power(2, 62) == 1 << 62
        with pytest.raises(SizeCapExceeded):
            checked_power(2, 63)


class TestGrid:
    def test_weight_tensor_sums_to_one(self):
        sys_ = make_system([[1.0, 3.0], [2.0, 2.0]], [(0, 1)])
        g = Grid(sys_, [(0, 0), (1, 0), (1, 1)])
        assert g.shape == (2, 2, 2)
        total = float(np.sum(np.broadcast_to(g.weight_tensor(), g.shape)))
        assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_cell_cap(self):
        sys_ = make_system([[1.0] * 8], [(0,)])
        with pytest.raises(SizeCapExceeded):
            Grid(sys_, [(0, m) for m in range(12)])

    def test_axis_cap(self):
        # One-atom axes: a single cell, but past numpy's 64 dimensions.
        sys_ = make_system([[1.0], [1.0]], [(0, 1)])
        keys = [(v, m) for v in (0, 1) for m in range(32)]
        assert Grid(sys_, keys).cells == 1
        with pytest.raises(SizeCapExceeded, match="65 axes"):
            Grid(sys_, keys + [(0, 32)])

    def test_duplicate_keys_rejected(self):
        sys_ = make_system([[1.0, 1.0]], [(0,)])
        with pytest.raises(ShapeMismatch):
            Grid(sys_, [(0, 0), (0, 0)])

    def test_lift_respects_replicas(self):
        # f(x, y) lifted at digits (0, 1) must read axis (0,0) and (1,1).
        sys_ = make_system([[1.0, 1.0], [1.0, 1.0]], [(0, 1)])
        g = Grid(sys_, [(0, 0), (1, 0), (1, 1)])
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        lifted = np.broadcast_to(g.lift((0, 1), vals, (0, 1)), g.shape)
        for x in range(2):
            for y0 in range(2):
                for y1 in range(2):
                    assert lifted[x, y0, y1] == vals[x, y1]

    def test_lift_transposes_out_of_order_axes(self):
        # Keys sort as (0,0),(1,0); lifting an edge whose axes land reversed
        # on the grid must transpose the tensor.
        sys_ = make_system([[1.0, 1.0], [1.0, 1.0, 1.0]], [(0, 1)])
        g = Grid(sys_, [(0, 1), (1, 0)])
        vals = np.arange(6.0).reshape(2, 3)
        lifted = np.broadcast_to(g.lift((0, 1), vals, (1, 0)), g.shape)
        for x in range(2):
            for y in range(3):
                assert lifted[x, y] == vals[x, y]


class TestExpectationAndLpNorm:
    def test_expectation_hand_value(self):
        sys_ = make_system([[1.0, 3.0]], [(0,)])
        f = edge_function(sys_, (0,), [1.0, 3.0])
        assert math.isclose(expectation(sys_, (0,), f), 0.25 + 2.25, rel_tol=1e-15)

    def test_expectation_wrong_edge(self):
        sys_ = make_system([[1.0, 1.0], [1.0, 1.0]], [(0, 1)])
        f = edge_function(sys_, (0,), [1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            expectation(sys_, (1,), f)

    def test_lp_hand_values(self):
        sys_ = make_system([[1.0, 1.0]], [(0,)])
        f = edge_function(sys_, (0,), [3.0, 4.0])
        assert math.isclose(
            lp_norm(sys_, (0,), f, Exponent(2.0)), math.sqrt(12.5), rel_tol=1e-13
        )
        assert lp_norm(sys_, (0,), f, INF) == 4.0
        zero = edge_function(sys_, (0,), [0.0, 0.0])
        assert lp_norm(sys_, (0,), zero, Exponent(2.0)) == 0.0

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=4),
        st.floats(min_value=1.0, max_value=16.0),
    )
    def test_lp_monotone_in_p_uniform(self, vals, p):
        # On a probability space ||f||_p <= ||f||_q for p <= q <= inf.
        sys_ = make_system([[1.0] * len(vals)], [(0,)])
        f = edge_function(sys_, (0,), vals)
        lo = lp_norm(sys_, (0,), f, Exponent(p))
        hi = lp_norm(sys_, (0,), f, Exponent(2.0 * p))
        sup = lp_norm(sys_, (0,), f, INF)
        assert lo <= hi + 1e-9 * max(1.0, hi)
        assert hi <= sup + 1e-9 * max(1.0, sup)

    def test_lp_huge_exponent_stays_finite(self):
        sys_ = make_system([[1.0, 1.0, 1.0]], [(0,)])
        f = edge_function(sys_, (0,), [0.5, 2.0, 8.0])
        v = lp_norm(sys_, (0,), f, Exponent(float(1 << 20)))
        assert 0.999 * 8.0 <= v <= 8.0 + 1e-9


def _materialised(grid, factors):
    return float(np.sum(np.ascontiguousarray(grid.product(factors))))


def _replicated_case(atoms, ell, seed, n_factors=12):
    """Grid with ell replicas of every vertex and random factors on 1-3 vertices."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=z) for z in atoms], [(0,)])
    g = Grid(sys_, [(v, m) for v in range(len(atoms)) for m in range(ell)])
    factors, scale = [], 1.0
    for _ in range(n_factors):
        k = int(rng.integers(1, min(3, len(atoms)) + 1))
        edge = tuple(sorted(rng.choice(len(atoms), size=k, replace=False).tolist()))
        digits = tuple(int(d) for d in rng.integers(0, ell, size=k))
        vals = rng.uniform(-1.0, 1.0, size=tuple(atoms[v] for v in edge))
        factors.append(g.lift(edge, vals, digits))
        scale *= float(np.max(np.abs(vals)))
    return g, factors, scale


class TestGridExpect:
    @pytest.mark.parametrize(
        "atoms,ell",
        [((2, 3, 4), 4), ((4, 3, 2), 4), ((3, 4, 4, 4, 4), 2), ((2, 4, 3, 4, 2, 4), 2)],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_materialised_beyond_block(self, atoms, ell, seed):
        g, factors, scale = _replicated_case(atoms, ell, seed)
        assert g.cells > 1 << 16
        want = _materialised(g, factors)
        got = g.expect(factors)
        assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "atoms,ell", [((4, 4), 4), ((2, 2, 4), 4), ((2, 3, 4), 2), ((3,), 2)]
    )
    def test_bit_identical_at_or_below_block(self, atoms, ell):
        g, factors, _ = _replicated_case(atoms, ell, seed=5)
        assert g.cells <= 1 << 16
        assert g.expect(factors) == _materialised(g, factors)

    def test_no_factors_is_total_weight(self):
        g, _, _ = _replicated_case((2, 3, 4), 4, seed=4)
        assert math.isclose(g.expect([]), 1.0, rel_tol=1e-12)

    def test_cached_weight_tensor_is_read_only(self):
        g, factors, _ = _replicated_case((2, 3, 4), 2, seed=7)
        first = g.expect(factors)
        assert [g.expect(factors) for _ in range(3)] == [first] * 3
        assert g.full_weights is g.full_weights
        assert g.full_weights.flags.c_contiguous
        assert np.array_equal(g.full_weights, g.weight_tensor())
        with pytest.raises(ValueError):
            g.full_weights *= 2.0
        assert g.expect(factors) == first == _materialised(g, factors)

    def test_single_long_axis(self):
        # The trailing block always holds the last axis, however long.
        rng = np.random.Generator(np.random.Philox(key=6))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=70000)], [(0,)])
        g = Grid(sys_, [(0, 0)])
        f = [g.lift((0,), rng.uniform(-1.0, 1.0, size=70000), (0,))]
        assert abs(g.expect(f) - _materialised(g, f)) <= 1e-12


def _seed_expect(grid, factors):
    """`Grid.expect` with its old loops: in-place copies, one factor at a time.

    The reference for `_fold`, which must give the same bits.  It reads
    `spaces.BLOCK_CELLS` when called, as `Grid.expect` does.
    """
    factors = list(factors)
    if grid.cells <= spaces.BLOCK_CELLS:
        acc = grid.full_weights.copy()
        for a in factors:
            acc *= a
        return float(np.sum(acc))
    split = len(grid.shape) - 1
    trail = grid.shape[split]
    while split > 0 and trail * grid.shape[split - 1] <= spaces.BLOCK_CELLS:
        split -= 1
        trail *= grid.shape[split]
    groups = {}
    for a in factors:
        reads = tuple(ax for ax in range(split) if a.shape[ax] != 1)
        groups.setdefault(reads, []).append(a)
    base = grid.weight_tensor(grid.keys[split:])
    for a in groups.pop((), []):
        base = base * a
    caches = []
    for reads, group in groups.items():
        if len(group) == 1:
            cache = group[0]
        else:
            shape = np.broadcast_shapes(*(a.shape for a in group))
            cache = np.broadcast_to(group[0], shape).copy()
            for a in group[1:]:
                cache *= a
        caches.append((reads, cache))
    lead_w = grid.weight_tensor(grid.keys[:split]).reshape(-1)
    buf = np.empty(base.shape)
    sums = np.empty(lead_w.shape[0])
    for i, idx in enumerate(np.ndindex(*grid.shape[:split])):
        np.multiply(base, lead_w[i], out=buf)
        for reads, cache in caches:
            at = [0] * split
            for ax in reads:
                at[ax] = idx[ax]
            buf *= cache[tuple(at)]
        sums[i] = np.sum(buf)
    return float(np.sum(sums))


def _assert_same_bits(got, want):
    assert got == want or math.isnan(got) and math.isnan(want)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def _split(shape):
    """Leading axis count: the trailing block is the longest suffix of at
    most `spaces.BLOCK_CELLS` cells, and holds at least the last axis."""
    split = len(shape) - 1
    trail = shape[split]
    while split > 0 and trail * shape[split - 1] <= spaces.BLOCK_CELLS:
        split -= 1
        trail *= shape[split]
    return split


def _outer(ws):
    """(w_0 x w_1) x w_2 x ..., flattened: the weights of a run of axes."""
    acc = ws[0] if ws else np.ones(1)
    for w in ws[1:]:
        acc = np.multiply.outer(acc, w).reshape(-1)
    return acc


def _plain_expect(grid, factors):
    """`Grid.expect` past one block as a plain loop over leading indices.

    It calls no `boxlab` code, reading only the grid's shape, keys and
    weights and the block size.  Per leading index it forms the whole
    trailing block in the documented order: the trailing weights times the
    factors that read no leading axis, in turn; then, one group at a time,
    the product of the factors that read the same leading axes, taken left
    to right, with the groups ordered by the deepest leading axis they read
    and then by first appearance.  The block's pairwise sum is multiplied
    by the leading weight, and the results get one pairwise sum.
    """
    shape = grid.shape
    split = _split(shape)
    ws = [grid.system.spaces[v].weights for v, _ in grid.keys]
    groups = {}
    for a in factors:
        reads = tuple(ax for ax in range(split) if a.shape[ax] != 1)
        groups.setdefault(reads, []).append(a)
    base = _outer(ws[split:]).reshape(shape[split:])
    for a in groups.pop((), []):
        base = base * a.reshape(a.shape[split:])
    order = sorted(groups.items(), key=lambda item: item[0][-1])
    lead_w = _outer(ws[:split]).tolist()
    sums = []
    for i, idx in enumerate(itertools.product(*map(range, shape[:split]))):
        block = base
        for reads, group in order:
            at = tuple(idx[ax] if ax in reads else 0 for ax in range(split))
            prod = group[0][at]
            for a in group[1:]:
                prod = prod * a[at]
            block = block * prod
        sums.append(float(np.sum(block)) * lead_w[i])
    return float(np.sum(np.array(sums)))


def _rounding_bound(grid, factors):
    """Twice gamma_m times the sum of |cell|: a bound on how far two
    evaluations of one grid sum that associate differently may lie apart.

    Each evaluation is within gamma_m * sum |cell| of the exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4), with m
    the multiplications per cell (the factors and one per weight axis) plus
    the depth of two nested numpy pairwise sums, each at most 19 + log2(n)
    for n terms.  The sum of |cell| is itself taken in floats, hence 1%.
    """
    m = len(factors) + len(grid.shape) + 2 * (20 + math.ceil(math.log2(grid.cells)))
    gamma = m * 2.0**-53 / (1.0 - m * 2.0**-53)
    return 2.02 * gamma * _seed_expect(grid, [np.abs(a) for a in factors])


def _check_expect(grid, factors):
    """Up to one block, the bits of the seed loops; past one block, the bits
    of `_plain_expect` and the seed loops within `_rounding_bound`."""
    got = grid.expect(factors)
    if grid.cells <= spaces.BLOCK_CELLS:
        _assert_same_bits(got, _seed_expect(grid, factors))
    else:
        _assert_same_bits(got, _plain_expect(grid, factors))
        assert abs(got - _seed_expect(grid, factors)) <= _rounding_bound(grid, factors)
    return got


@st.composite
def _grid_and_factors(draw, max_cells, sizes=None):
    """A replicated grid of at most max_cells cells and 0-16 lifted factors.

    Vertices may have one atom (an axis `lift` leaves at size 1).  A factor
    reads any subset of the vertices, the empty one included, one replica
    each, in any coordinate order (a transposed view); factors may repeat
    what earlier ones read.  Values are random floats, mixed with 0.0 and
    -0.0 or of magnitude 1e-8 to 1e8, and a factor may be all -0.0.  With
    wide magnitudes a few cells dominate the sum, so that one changed
    rounding in them shows in it.
    """
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    per_copy = math.prod(sizes)
    ell = 1
    while per_copy ** (ell + 1) <= max_cells and ell < 4:
        ell += 1
    ell = draw(st.integers(1, ell))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32 - 1))))
    sys_ = make_system([rng.uniform(0.5, 1.5, size=z) for z in sizes], [(0,)])
    grid = Grid(sys_, [(v, m) for v in range(len(sizes)) for m in range(ell)])
    fill = draw(st.sampled_from(["wide", "plain", "zeros"]))
    signed = draw(st.booleans())
    factors = []
    for _ in range(draw(st.integers(0, 16))):
        if factors and draw(st.booleans()):
            edge, digits = draw(st.sampled_from(factors))[1:]
        else:
            edge = tuple(draw(st.permutations(range(len(sizes))))[: draw(st.integers(0, len(sizes)))])
            digits = tuple(draw(st.integers(0, ell - 1)) for _ in edge)
        shape = tuple(sizes[v] for v in edge)
        if draw(st.integers(0, 7)) == 0:
            vals = np.full(shape, -0.0)
        elif fill == "wide":
            vals = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
        else:
            vals = rng.uniform(0.5, 2.0, size=shape)
            if fill == "zeros":
                vals[rng.random(shape) < 0.3] = 0.0
                vals[rng.random(shape) < 0.3] = -0.0
        if signed:
            vals *= rng.choice([-1.0, 1.0], size=shape)
        factors.append((grid.lift(edge, vals, digits), edge, digits))
    return grid, [a for a, _, _ in factors]


class TestFoldMatchesSeedLoops:
    """`Grid.expect` against its reference loops, bit for bit, zeros' signs included.

    Up to one block the reference is the seed loops; past one block it is
    `_plain_expect`, and the seed loops agree within a rounding bound.
    """

    @settings(max_examples=100)
    @given(_grid_and_factors(max_cells=1 << 18))
    def test_any_grid(self, case):
        grid, factors = case
        _check_expect(grid, factors)

    @settings(max_examples=100)
    @given(
        st.sampled_from([(3, 5, 17, 257), (4, 4, 4, 4, 4, 4, 4, 4), (65537,), (4,) * 8 + (2,)]),
        st.data(),
    )
    def test_around_one_block(self, sizes, data):
        # 65535, 65536, 65537 and 131072 cells, one replica each.
        grid, factors = data.draw(_grid_and_factors(max_cells=1 << 17, sizes=list(sizes)))
        _check_expect(grid, factors)

    @settings(max_examples=100)
    @given(
        _grid_and_factors(max_cells=1 << 12),
        st.sampled_from([2, 8, 64, 512]),
        st.sampled_from([1, 16, 1 << 12]),
        st.sampled_from([1, 4, 1 << 8]),
    )
    def test_small_blocks(self, case, block, fold_min, inner):
        # Small blocks give several leading axes and groups; small fold
        # constants put small caches and bases through the expanded fold.
        grid, factors = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "BLOCK_CELLS", block)
            mp.setattr(spaces, "FOLD_MIN_CELLS", fold_min)
            mp.setattr(spaces, "INNER_CELLS", inner)
            _check_expect(grid, factors)

    @settings(max_examples=100)
    @given(
        _grid_and_factors(max_cells=1 << 14),
        st.sampled_from([1, 16, 1 << 12]),
        st.sampled_from([1, 4, 1 << 8]),
    )
    def test_fold_cells(self, case, fold_min, inner):
        # Cell by cell, -0.0 included: a sum of zeros would hide the sign.
        grid, factors = case
        folds = [(grid.full_weights, factors)]
        if factors:
            folds.append((factors[0], factors[1:]))
        for first, rest in folds:
            shape = np.broadcast_shapes(first.shape, *(a.shape for a in rest))
            want = np.broadcast_to(first, shape).copy()
            for a in rest:
                want *= a
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spaces, "FOLD_MIN_CELLS", fold_min)
                mp.setattr(spaces, "INNER_CELLS", inner)
                got = _fold(first, rest, shape)
            assert got.shape == shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_memory_at_most_seed_loops(self):
        # The 3-edge, 4-atom, ell=4 box power: 4**12 cells, whose four
        # groups of 16 factors share one 2 MB cache.  The old loops peaked
        # at 9,453,232 bytes here, with one cache per group; the shared
        # cache and one 512 KB buffer per leading axis peak at 4,773,176.
        rng = np.random.Generator(np.random.Philox(key=13))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=4) for _ in range(3)], [(0, 1, 2)])
        e = (0, 1, 2)
        grid = Grid(sys_, [(v, m) for v in e for m in range(4)])
        vals = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
        factors = [grid.lift(e, vals, d) for d in itertools.product(range(4), repeat=3)]
        grid.expect(factors[:1])  # warm the imports
        peaks = {}
        got = {}
        for name, run in (("seed", _seed_expect), ("fold", Grid.expect)):
            tracemalloc.start()
            try:
                got[name] = run(grid, factors)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        _assert_same_bits(got["fold"], _plain_expect(grid, factors))
        assert abs(got["fold"] - got["seed"]) <= _rounding_bound(grid, factors)
        assert peaks["fold"] <= peaks["seed"]


def _count_folds(mp):
    """Patch `spaces._fold` to count the folds that multiply something."""
    calls = []
    real = spaces._fold

    def spy(first, factors, shape):
        if factors:
            calls.append(shape)
        return real(first, factors, shape)

    mp.setattr(spaces, "_fold", spy)
    return calls


class TestSharedCaches:
    """Groups share a cache only when they fold the same views of the same memory."""

    def grid(self, atoms, ell, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=atoms) for _ in range(2)], [(0, 1)])
        return rng, Grid(sys_, [(v, m) for v in (0, 1) for m in range(ell)])

    def test_transposed_views_share_no_cache(self):
        # f and f.T on a square 2-edge: one memory, one shape, other strides.
        rng, grid = self.grid(3, 2, 31)
        f = rng.uniform(-1.0, 1.0, size=(3, 3))
        assert f.T.shape == f.shape and f.T.strides != f.strides
        e = (0, 1)
        factors = [
            grid.lift(e, f, (0, 0)), grid.lift(e, f, (0, 1)),  # read (0, 0)
            grid.lift(e, f.T, (1, 0)), grid.lift(e, f.T, (1, 1)),  # read (0, 1)
        ]
        # What a cache wrongly shared with the first group would give.
        shared = factors[:2] + [grid.lift(e, f, (1, 0)), grid.lift(e, f, (1, 1))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "BLOCK_CELLS", 9)
            calls = _count_folds(mp)
            assert _split(grid.shape) == 2
            got = _check_expect(grid, factors)
            assert got != _plain_expect(grid, shared)
        assert len(calls) == 2

    @pytest.mark.parametrize("other", ["values", "copy"])
    def test_one_different_factor_shares_no_cache(self, other):
        # Keyed on memory, not values: an equal copy gets its own fold too.
        rng, grid = self.grid(3, 2, 32)
        f = rng.uniform(-1.0, 1.0, size=(3, 3))
        g = rng.uniform(-1.0, 1.0, size=(3, 3))
        h = g.copy() if other == "copy" else rng.uniform(-1.0, 1.0, size=(3, 3))
        e = (0, 1)
        factors = [
            grid.lift(e, f, (0, 0)), grid.lift(e, g, (0, 1)),
            grid.lift(e, f, (1, 0)), grid.lift(e, h, (1, 1)),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "BLOCK_CELLS", 9)
            calls = _count_folds(mp)
            _check_expect(grid, factors)
        assert len(calls) == 2

    def test_box_power_direct_folds_one_cache(self):
        # ell groups of ell**2 lifts of f, one per leading replica of vertex 0.
        rng = np.random.Generator(np.random.Philox(key=33))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=2) for _ in range(3)], [(0, 1, 2)])
        f = edge_function(sys_, (0, 1, 2), rng.uniform(-1.0, 1.0, size=(2, 2, 2)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "BLOCK_CELLS", 1 << 8)
            calls = _count_folds(mp)
            got = box_power_direct(sys_, (0, 1, 2), f, 4)
            grid = Grid(sys_, [(v, m) for v in range(3) for m in range(4)])
            assert _split(grid.shape) == 4
            factors = [
                grid.lift((0, 1, 2), f.values, d)
                for d in itertools.product(range(4), repeat=3)
            ]
            _assert_same_bits(got, _plain_expect(grid, factors))
        assert calls == [(2,) * 9]  # one fold over (leading read x trailing)


def _reference_lp(row, p, grid):
    """One row's L_p norm through `Grid.expect`, as a one-tensor norm takes it."""
    mag = np.abs(row.reshape(grid.shape))
    m = float(np.max(mag))
    if p.is_inf or m == 0.0:
        return m
    mean = grid.expect([np.power(mag / m, p.value)])
    return m * math.exp(math.log(mean) / p.value) if mean > 0.0 else 0.0


LP_PS = [Exponent(1.0), Exponent(1.5), Exponent(2.0), Exponent(3.5), Exponent(2.0**20), INF]


class TestGridLpNorms:
    """The batched L_p kernel against `Grid.expect`, one row at a time, bit for bit."""

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(1, 5),
        st.sampled_from(LP_PS),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_match_expect(self, atoms, count, p, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = make_system([rng.uniform(0.2, 2.0, size=z) for z in atoms], [(0,)])
        grid = Grid(sys_, [(v, 0) for v in range(len(atoms))])
        rows = rng.uniform(-2.0, 2.0, size=(count, grid.cells))
        rows[rng.random(count) < 0.2] = 0.0
        got = _grid_lp_norms(rows, p, lambda: grid)
        assert got == [_reference_lp(row, p, grid) for row in rows]

    @pytest.mark.parametrize("p", [Exponent(2.0), Exponent(3.5), INF], ids=repr)
    def test_rows_past_one_block(self, p):
        rng = np.random.Generator(np.random.Philox(key=9))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=41) for _ in range(3)], [(0,)])
        grid = Grid(sys_, [(0, 0), (1, 0), (2, 0)])
        assert grid.cells > 1 << 16
        rows = rng.uniform(-2.0, 2.0, size=(2, grid.cells))
        got = _grid_lp_norms(rows, p, lambda: grid)
        assert got == [_reference_lp(row, p, grid) for row in rows]

    def test_lp_norm_is_one_row(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        sys_ = make_system([rng.uniform(0.5, 1.5, size=z) for z in (3, 4)], [(0, 1)])
        f = edge_function(sys_, (0, 1), rng.uniform(-2.0, 2.0, size=(3, 4)))
        grid = Grid(sys_, [(0, 0), (1, 0)])
        for p in LP_PS:
            assert lp_norm(sys_, (0, 1), f, p) == _reference_lp(f.values, p, grid)
