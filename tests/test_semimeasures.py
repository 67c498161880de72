"""The clamping loop, mixtures, and domination.

Randomized streams are generated from a seeded RNG; every numeric check
is exact.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kolmo.exact_arith import Dyadic, ONE, ZERO
from kolmo.semimeasures import (
    ConditionalSemimeasure,
    DivergeSignal,
    MixtureSpec,
    MonotoneApproximator,
    MonotonicityError,
    WeightError,
    bar_weight_exponents,
    check_domination,
    load_approximator_csv,
    mixture,
    normalize,
    normalize_stages,
)


def dy(n, e=0):
    return Dyadic(n, e)


def staircase_stream(seed, size=6, max_stage=8, overfull=False):
    """Random monotone stream on [1..size]^2: per point a nondecreasing
    dyadic staircase over stages.  Column sums are kept within 1 unless
    ``overfull``, in which case one random column is pushed past 1 at a
    random stage."""
    rng = random.Random(seed)
    steps = {}
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            budget = (1 << 8) // size   # per-cell cap keeps columns within 1
            level = 0
            cell = []
            for k in range(1, max_stage + 1):
                if rng.random() < 0.4 and level < budget:
                    level = rng.randint(level, budget)
                cell.append((k, dy(level, 8)))
            steps[(x, y)] = cell
    if overfull:
        y_bad = rng.randint(1, size)
        k_bad = rng.randint(2, max_stage)
        x_bad = rng.randint(1, size)
        cell = steps[(x_bad, y_bad)]
        steps[(x_bad, y_bad)] = [
            (k, v if k < k_bad else dy(5, 2)) for k, v in cell
        ]

    def fn(x, y, k):
        value = ZERO
        for kk, vv in steps.get((x, y), ()):
            if kk > k:
                break
            value = vv
        return value

    return MonotoneApproximator(fn, name=f"stair{seed}")


class TestWorkedTraces:
    def test_zero_stream(self):
        phi = MonotoneApproximator.constant(ZERO)
        for snap in normalize_stages(phi, 6):
            assert snap.values == {}

    def test_genuine_semimeasure_passes_through(self):
        phi = MonotoneApproximator(lambda x, y, k: dy(1, x) if x <= k else ZERO)
        result = normalize(phi, 6)
        for x in range(1, 7):
            for y in range(1, 7):
                assert result.mass(x, y) == dy(1, x)
        assert result.frozen_y == frozenset()

    def test_all_ones_freezes_after_first_stage(self):
        phi = MonotoneApproximator.constant(ONE)
        snaps = list(normalize_stages(phi, 5))
        assert snaps[0].values == {(1, 1): ONE}
        for snap in snaps[1:]:
            assert snap.values == {(1, 1): ONE}
            assert snap.frozen_y
        assert normalize(phi, 5).mass(1, 1) == ONE

    def test_overfull_from_the_first_stage_never_assigns(self):
        phi = MonotoneApproximator.constant(dy(2))
        result = normalize(phi, 5)
        assert result.values == {} and 1 in result.frozen_y

    def test_monotonicity_violation_identified(self):
        def fn(x, y, k):
            return dy(1, 1) if k == 1 else dy(1, 2)

        phi = MonotoneApproximator(fn)
        with pytest.raises(MonotonicityError) as err:
            normalize(phi, 3)
        assert err.value.point[2] == 2

    def test_violation_against_a_later_stage_identified(self):
        def fn(x, y, k):
            return dy(1, 1) if k >= 3 else dy(3, 2)   # 3/4 at stages 1-2 exceeds 1/2 at 3

        phi = MonotoneApproximator(fn)
        assert phi(1, 1, 3) == dy(1, 1)
        with pytest.raises(MonotonicityError) as err:
            phi(1, 1, 1)
        assert err.value.point == (1, 1, 1)
        assert phi(1, 1, 4) == dy(1, 1)   # the rejected sample left no trace

    def test_diverge_signal_freezes_stage(self):
        def fn(x, y, k):
            if k >= 3:
                raise DivergeSignal
            return dy(1, 2) if k >= 2 else ZERO

        phi = MonotoneApproximator(fn)
        snaps = list(normalize_stages(phi, 5))
        assert snaps[1].values == {(1, 1): dy(1, 2), (1, 2): dy(1, 2), (2, 1): dy(1, 2), (2, 2): dy(1, 2)}
        for later in snaps[2:]:
            assert later.values == snaps[1].values


class HistoryScanReferee:
    """The whole-history scan: each new sample is compared with every
    recorded sample of its (x, y).  Referee for the neighbour check in
    MonotoneApproximator."""

    def __init__(self, fn):
        self._fn = fn
        self._memo = {}
        self._history = {}

    def __call__(self, x, y, k):
        point = (x, y, k)
        if point in self._memo:
            return self._memo[point]
        value = self._fn(x, y, k)
        history = self._history.setdefault((x, y), [])
        for kk, vv in history:
            if (kk < k and vv > value) or (kk > k and vv < value):
                raise MonotonicityError(x, y, k)
        history.append((k, value))
        history.sort(key=lambda kv: kv[0])
        self._memo[point] = value
        return value


SIDE, STAGES = 2, 8


@st.composite
def stage_tables(draw):
    """Per (x, y) in [1..SIDE]^2, values at stages 1..STAGES: sorted, then
    in some cells the value at one stage drawn anew below (a dip) or
    above (a spike) its sorted place."""
    table = {}
    for xy in [(x, y) for x in range(1, SIDE + 1) for y in range(1, SIDE + 1)]:
        levels = sorted(draw(st.lists(st.integers(40, 100), min_size=STAGES, max_size=STAGES)))
        kind = draw(st.sampled_from(["monotone", "dip", "spike"]))
        if kind != "monotone":
            i = draw(st.integers(0, STAGES - 1))
            if kind == "dip":
                levels[i] = draw(st.integers(0, levels[i] - 1))
            else:
                levels[i] = draw(st.integers(levels[i] + 1, 140))
        table[xy] = levels
    return table


queries = st.lists(
    st.tuples(st.integers(1, SIDE), st.integers(1, SIDE), st.integers(1, STAGES)),
    min_size=10,
    max_size=60,
)


class TestNeighbourCheckAgainstReferee:
    @settings(max_examples=500, deadline=None)
    @given(stage_tables(), queries)
    def test_same_errors_and_values_as_whole_history_scan(self, table, points):
        def fn(x, y, k):
            return dy(table[(x, y)][k - 1], 4)

        phi, referee = MonotoneApproximator(fn), HistoryScanReferee(fn)
        for x, y, k in points:
            try:
                want = referee(x, y, k)
            except MonotonicityError as err:
                with pytest.raises(MonotonicityError) as got:
                    phi(x, y, k)
                assert got.value.point == err.point
                continue
            assert phi(x, y, k) == want


class TestHistoryIsTheMemo:
    def test_repeated_point_does_not_call_fn(self):
        calls = []

        def fn(x, y, k):
            calls.append((x, y, k))
            return dy(k, 4)

        phi = MonotoneApproximator(fn)
        for x, y, k in [(1, 1, 3), (1, 1, 1), (2, 1, 3), (1, 1, 3), (1, 1, 1), (2, 1, 3)]:
            assert phi(x, y, k) == dy(k, 4)
        assert calls == [(1, 1, 3), (1, 1, 1), (2, 1, 3)]

    def test_rejected_point_is_not_recorded(self):
        calls = []

        def fn(x, y, k):
            calls.append(k)
            return ZERO if k == 3 else dy(1, 1)

        phi = MonotoneApproximator(fn)
        assert phi(1, 1, 1) == dy(1, 1)
        for _ in range(2):
            with pytest.raises(MonotonicityError):
                phi(1, 1, 3)
        assert calls == [1, 3, 3]
        # a recorded stage-3 zero would reject 1/2 at stage 2
        assert phi(1, 1, 2) == dy(1, 1)

    def test_wrong_type_and_divergence_are_not_recorded(self):
        calls = []

        def fn(x, y, k):
            calls.append(k)
            if k == 1:
                return "1/2^1"
            raise DivergeSignal

        phi = MonotoneApproximator(fn)
        for _ in range(2):
            with pytest.raises(TypeError):
                phi(1, 1, 1)
            with pytest.raises(DivergeSignal):
                phi(1, 1, 2)
        assert calls == [1, 2, 1, 2]


def linear_scan_table(rows):
    """The linear staircase scan ``from_table`` used before its stairs
    were read by bisection; referee for that lookup."""
    points = {}
    for x, y, k, v in rows:
        points.setdefault((x, y), []).append((k, v))
    for steps in points.values():
        steps.sort(key=lambda kv: kv[0])

    def fn(x, y, k):
        value = ZERO
        for kk, vv in points.get((x, y), ()):
            if kk > k:
                break
            value = vv
        return value

    return fn


table_rows = st.lists(
    st.tuples(
        st.integers(1, SIDE), st.integers(1, SIDE), st.integers(-2, STAGES), st.integers(0, 12)
    ).map(lambda r: (r[0], r[1], r[2], dy(r[3], 3))),
    max_size=24,
)


class TestFromTableAgainstLinearScan:
    @settings(max_examples=400, deadline=None)
    @given(table_rows, queries)
    def test_same_errors_and_values(self, rows, points):
        # unsorted rows, repeated stages and stages <= 0 all come up;
        # among rows of one stage the last listed one counts
        phi = MonotoneApproximator.from_table(rows)
        referee = MonotoneApproximator(linear_scan_table(rows))
        for x, y, k in points:
            try:
                want = referee(x, y, k)
            except MonotonicityError as err:
                with pytest.raises(MonotonicityError) as got:
                    phi(x, y, k)
                assert got.value.point == err.point
                continue
            assert phi(x, y, k) == want

    def test_last_listed_row_wins_at_a_repeated_stage(self):
        rows = [(1, 1, 2, dy(1, 2)), (1, 1, 0, dy(1, 3)), (1, 1, 2, dy(1, 1))]
        phi = MonotoneApproximator.from_table(rows)
        assert [phi(1, 1, k) for k in (1, 2, 3)] == [dy(1, 3), dy(1, 1), dy(1, 1)]
        assert phi(2, 1, 3) == ZERO


class TestRandomizedClamping:
    def test_column_sums_never_exceed_one(self):
        for seed in range(40):
            phi = staircase_stream(seed, overfull=bool(seed % 2))
            for snap in normalize_stages(phi, 8):
                for y in range(1, snap.stage + 1):
                    assert snap.column_sum(y) <= ONE

    def test_freeze_is_permanent(self):
        for seed in range(40):
            phi = staircase_stream(seed, overfull=True)
            frozen_at = None
            last_frozen_values = None
            for snap in normalize_stages(phi, 8):
                if frozen_at is None and snap.frozen_y:
                    frozen_at = snap.stage
                    last_frozen_values = dict(snap.values)
                elif frozen_at is not None:
                    assert snap.values == last_frozen_values, seed

    def test_values_grow_on_clean_streams(self):
        for seed in range(20):
            phi = staircase_stream(seed, overfull=False)
            prev = {}
            for snap in normalize_stages(phi, 8):
                for xy, v in prev.items():
                    assert snap.values.get(xy, ZERO) >= v
                prev = snap.values

    def test_per_column_variant_keeps_good_columns_alive(self):
        def fn(x, y, k):
            if y == 1:
                return ONE          # column 1 overflows from stage 2 on
            return dy(1, x) if x <= k else ZERO

        phi = MonotoneApproximator(fn)
        strict = normalize(phi, 4)
        loose = normalize(phi, 4, per_column=True)
        # all-or-nothing froze at stage 2; stage-1 assignment survives
        assert strict.values == {(1, 1): ONE}
        # per-column keeps refining the clean columns
        assert loose.mass(2, 2) == dy(1, 2)
        assert all(xy[1] != 1 or xy == (1, 1) for xy in loose.values)
        assert 1 in loose.frozen_y


def clamping_run(phi, max_stage, per_column):
    """Every table ``normalize_stages`` yields, then the exception that
    ended it (type, message, point) or None."""
    tables = []
    try:
        for snap in normalize_stages(phi, max_stage, per_column):
            tables.append((snap.values, snap.stage, snap.frozen_y))
    except (MonotonicityError, TypeError) as err:
        return tables, (type(err), str(err), getattr(err, "point", None))
    return tables, None


def grid_referee(phi):
    """The same stream with its stairs hidden, so the clamping loop
    samples it on the whole square at every stage."""
    phi.stairs = None
    return phi


@st.composite
def clamped_staircases(draw):
    """Rows of a ``from_table`` staircase, a stage bound K and probes.
    Rows come unsorted, with repeated stages, stages from -2 to K + 3,
    zero values, falling stairs, over-full columns, the odd value that is
    not a Dyadic, and points past K when K is small; the probes read the
    stream out of order before the clamping loop runs."""
    k_max = draw(st.integers(1, 20))
    side = min(k_max + 2, 6)
    point = st.tuples(st.integers(1, side), st.integers(1, side))
    steps = st.lists(st.tuples(st.integers(-2, k_max + 3), st.integers(0, 40)), min_size=1, max_size=4)
    rows = []
    for (x, y), cell, rising in draw(st.lists(st.tuples(point, steps, st.booleans()), max_size=14)):
        if rising:   # the same stages and values, sorted into a monotone staircase
            cell = zip(sorted(k for k, _ in cell), sorted(n for _, n in cell))
        rows += [(x, y, k, "1/2^1" if n == 40 else dy(n, 5)) for k, n in cell]
    rows = draw(st.permutations(rows))
    probes = draw(st.lists(st.tuples(point, st.integers(1, k_max + 4)).map(lambda p: (*p[0], p[1])), max_size=12))
    return rows, k_max, probes


class TestStairPathAgainstGridLoop:
    @settings(max_examples=600, deadline=None)
    @given(clamped_staircases(), st.booleans())
    def test_same_tables_and_first_error(self, case, per_column):
        rows, max_stage, probes = case
        phi = MonotoneApproximator.from_table(rows)
        referee = grid_referee(MonotoneApproximator.from_table(rows))
        for x, y, k in probes:
            outcomes = []
            for stream in (phi, referee):
                try:
                    outcomes.append(stream(x, y, k))
                except (MonotonicityError, TypeError) as err:
                    outcomes.append((type(err), str(err)))
            assert outcomes[0] == outcomes[1]
        assert clamping_run(phi, max_stage, per_column) == clamping_run(referee, max_stage, per_column)

    def test_stairs_that_diverge_hand_the_stage_to_the_grid_loop(self):
        rows = [(1, 1, 1, dy(1, 2)), (2, 1, 3, dy(1, 1)), (1, 2, 2, dy(1, 3)), (3, 2, 4, dy(3, 2)), (4, 3, 1, dy(1, 1))]

        listed = MonotoneApproximator.from_table(rows).stairs

        class Diverging(dict):
            """Stairs of condition 1, whose lookup of x = 3 diverges."""

            def get(self, x, default=None):
                if x == 3:
                    raise DivergeSignal
                return super().get(x, default)

        def stairs(y):
            return Diverging(listed(y)) if y == 1 else listed(y)

        def make():
            return MonotoneApproximator.from_stairs(stairs)

        for per_column in (False, True):
            got = clamping_run(make(), 6, per_column)
            assert got == clamping_run(grid_referee(make()), 6, per_column)
            assert [stage for _, stage, _ in got[0]] == [1, 2, 3, 4, 5, 6]
            assert got[0][2][0] == got[0][5][0] == {(1, 1): dy(1, 2), (1, 2): dy(1, 3)}

    def test_first_error_of_a_stage_in_y_then_x_order(self):
        # at stage 3 a stair of (1, 1) falls and the entering (3, 2) is
        # not a Dyadic: the grid reaches (1, 1) first
        rows = [(1, 1, 1, dy(1, 1)), (1, 1, 3, dy(1, 2)), (3, 2, 1, "1/2^1")]
        for per_column in (False, True):
            got = clamping_run(MonotoneApproximator.from_table(rows), 4, per_column)
            assert got == clamping_run(grid_referee(MonotoneApproximator.from_table(rows)), 4, per_column)
            assert got[1] == (MonotonicityError, "approximator not monotone at (x=1, y=1, k=3)", (1, 1, 3))

    def test_calls_only_at_entry_and_stair_points(self, monkeypatch):
        rng = random.Random(45)
        size = 45
        rows = []
        for y in range(1, size + 1):
            for x in rng.sample(range(1, size + 1), 3):
                for k, n in zip(sorted(rng.sample(range(1, size + 6), 2)), sorted(rng.sample(range(1, 40), 2))):
                    rows.append((x, y, k, dy(n, 8)))
        stairs = {}
        for x, y, k, _ in rows:
            stairs.setdefault((x, y), set()).add(k)
        bound = sum(1 + sum(max(x, y) < k <= size for k in stages) for (x, y), stages in stairs.items())
        original = MonotoneApproximator.__call__
        for per_column in (False, True):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(MonotoneApproximator, "__call__",
                              lambda phi, x, y, k: calls.append((x, y, k)) or original(phi, x, y, k))
                got = clamping_run(MonotoneApproximator.from_table(rows), size, per_column)
            assert len(calls) <= bound < size ** 3 // 100
            assert got == clamping_run(grid_referee(MonotoneApproximator.from_table(rows)), size, per_column)


def oracle_clamp(sample, max_stage):
    """Independent rewrite of the clamping loop: dense fractions, no
    sparsity tricks.  ``sample(i, j, k)`` returns a Fraction or raises
    DivergeSignal."""
    from fractions import Fraction

    values = {}
    for k in range(1, max_stage + 1):
        try:
            grid = {(i, j): sample(i, j, k) for i in range(1, k + 1) for j in range(1, k + 1)}
        except DivergeSignal:
            continue
        if any(sum(grid[(i, j)] for i in range(1, k + 1)) > 1 for j in range(1, k + 1)):
            continue
        values = dict(grid)
    return {xy: v for xy, v in values.items() if v != Fraction(0)}


class TestAgainstIndependentOracle:
    def test_random_streams_match(self):
        for seed in range(60):
            phi = staircase_stream(seed, overfull=seed % 3 == 0)
            mine = normalize(phi, 8)
            reference = staircase_stream(seed, overfull=seed % 3 == 0)
            want = oracle_clamp(
                lambda i, j, k: reference(i, j, k).to_fraction(), 8
            )
            got = {xy: v.to_fraction() for xy, v in mine.values.items()}
            assert got == want, seed

    def test_diverging_streams_match(self):
        def make(seed):
            rng = random.Random(seed)
            k_div = rng.randint(2, 6)

            def fn(x, y, k):
                if (x, y) == (2, 1) and k >= k_div:
                    raise DivergeSignal
                return dy(1, x + 2) if x <= k else ZERO

            return fn

        for seed in range(20):
            mine = normalize(MonotoneApproximator(make(seed)), 7)
            fn = make(seed)
            want = oracle_clamp(lambda i, j, k: fn(i, j, k).to_fraction(), 7)
            got = {xy: v.to_fraction() for xy, v in mine.values.items()}
            assert got == want, seed


class TestCsvFixtures:
    def test_load_and_clamp(self):
        text = "1,1,1,1/2^1\n2,1,2,1/2^2\n# comment\n1,2,1,1/2^0\n"
        phi = load_approximator_csv(text)
        result = normalize(phi, 3)
        assert result.mass(1, 1) == dy(1, 1)
        assert result.mass(2, 1) == dy(1, 2)
        assert result.mass(1, 2) == ONE


class TestMixture:
    def test_single_point_mass_passes_through(self):
        table = ConditionalSemimeasure({(3, 2): ONE}, stage=4)
        spec = MixtureSpec(((0, table),))
        m = mixture(spec, 4)
        assert m.mass(3, 2) == ONE

    def test_two_point_masses_split(self):
        t1 = ConditionalSemimeasure({(1, 1): ONE}, stage=4)
        t2 = ConditionalSemimeasure({(2, 1): ONE}, stage=4)
        m = mixture(MixtureSpec(((1, t1), (1, t2))), 4)
        assert m.mass(1, 1) == m.mass(2, 1) == dy(1, 1)

    def test_bar_weights_satisfy_kraft(self):
        exps = bar_weight_exponents(4)
        assert exps == [3, 3, 5, 5]
        total = sum((Dyadic.pow2(e) for e in exps), ZERO)
        assert total <= ONE
        table = ConditionalSemimeasure({(1, 1): ONE}, stage=2)
        mixture(MixtureSpec(tuple((e, table) for e in exps)), 2)   # no WeightError

    def test_overweight_rejected_before_evaluation(self):
        calls = []

        def fn(x, y, k):
            calls.append((x, y, k))
            return ZERO

        with pytest.raises(WeightError):
            MixtureSpec(((0, MonotoneApproximator(fn)), (0, MonotoneApproximator(fn))))
        assert calls == []

    def test_weight_exponent_bound(self):
        table = ConditionalSemimeasure({(1, 1): ONE}, stage=2)
        assert mixture(MixtureSpec(((4096, table),)), 2).mass(1, 1) == Dyadic.pow2(4096)
        for e in (4097, 10 ** 11):
            with pytest.raises(WeightError, match=f"weight exponent {e} above 4096"):
                MixtureSpec(((1, table), (e, table)))

    def test_mixture_of_streams(self):
        phi1 = MonotoneApproximator(lambda x, y, k: ONE if (x, y) == (1, 1) else ZERO)
        phi2 = MonotoneApproximator(lambda x, y, k: ONE if (x, y) == (2, 1) else ZERO)
        m = mixture(MixtureSpec(((1, phi1), (2, phi2))), 3)
        assert m.mass(1, 1) == dy(1, 1)
        assert m.mass(2, 1) == dy(1, 2)
        assert m.column_sum(1) == dy(3, 2)


class TestDomination:
    def test_single_component_equality(self):
        phi = staircase_stream(7)
        spec = MixtureSpec(((0, phi),))
        m = mixture(spec, 6)
        domain = [(x, y) for x in range(1, 7) for y in range(1, 7)]
        assert check_domination(m, spec, domain)
        component = normalize(staircase_stream(7), 6)
        for x, y in domain:
            assert m.mass(x, y) == component.mass(x, y)

    def test_two_point_example(self):
        t1 = ConditionalSemimeasure({(1, 1): ONE}, stage=4)
        t2 = ConditionalSemimeasure({(2, 1): ONE}, stage=4)
        spec = MixtureSpec(((1, t1), (1, t2)))
        m = mixture(spec, 4)
        assert check_domination(m, spec, [(1, 1), (2, 1), (3, 3)])

    def test_randomized_specs_always_dominate(self):
        rng = random.Random(99)
        for trial in range(25):
            n = rng.randint(1, 5)
            comps = tuple(
                (e, staircase_stream(1000 + trial * 10 + j, size=4))
                for j, e in enumerate(bar_weight_exponents(n))
            )
            spec = MixtureSpec(comps)
            m = mixture(spec, 5)
            domain = [(x, y) for x in range(1, 5) for y in range(1, 5)]
            assert check_domination(m, spec, domain), trial
            weight_sum = sum((w for w in spec.weights), ZERO)
            for y in range(1, 6):
                assert m.column_sum(y) <= weight_sum <= ONE
