"""Interval coding: static allocator, threshold events, codebooks.

The oracle is an independent allocator written the dumb way: fractions
for arithmetic, a linear scan over all binary words for the largest
contained binary interval.
"""

import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kolmo.apriori import approx_apriori
from kolmo.codes import index_word, is_prefix_free, kraft_sum, word_index
from kolmo.exact_arith import Dyadic, ONE, ZERO
from kolmo.fixtures import fixture_names, load_fixture
from kolmo.prefix_vm import Outcome, dovetail, run
from kolmo.semimeasures import (
    ConditionalSemimeasure,
    MixtureSpec,
    MonotoneApproximator,
    MonotonicityError,
    WeightError,
    bar_weight_exponents,
    mixture,
)
from kolmo.sf_coder import (
    AllocationOverflowError,
    AuxMismatchError,
    PsiEvent,
    build_codebook,
    codebook_to_machine,
    coding_gap_report_machine,
    coding_gap_report_mixture,
    decode,
    format_codebook,
    machine_mass_stream,
    mixture_mass_stream,
    parse_codebook,
    psi_discretize,
    shannon_fano,
)


def dy(n, e=0):
    return Dyadic(n, e)


def oracle_largest_word(lo: Fraction, hi: Fraction, max_len=20):
    """Linear scan over all binary words by (length, value)."""
    for k in range(max_len + 1):
        for m in range(1 << k):
            wlo = Fraction(m, 1 << k)
            whi = Fraction(m + 1, 1 << k)
            if lo <= wlo and whi <= hi:
                return format(m, "b").zfill(k) if k else ""
    return None


def oracle_allocate(masses):
    """Independent left-to-right allocator over exact fractions."""
    cursor = Fraction(0)
    out = []
    for sym, p in masses:
        f = p.to_fraction()
        out.append((sym, oracle_largest_word(cursor, cursor + f)))
        cursor += f
    return out


class TestShannonFano:
    def test_halving_masses(self):
        book = shannon_fano([("a", dy(1, 1)), ("b", dy(1, 2)), ("c", dy(1, 2))])
        assert [(s, w) for s, w, _ in book.entries] == [("a", "0"), ("b", "10"), ("c", "11")]

    def test_single_full_mass(self):
        book = shannon_fano([("a", ONE)])
        assert book.codeword("a") == ""

    def test_three_eighths_example(self):
        book = shannon_fano([("a", dy(3, 3)), ("b", dy(3, 3)), ("c", dy(1, 2))])
        assert [(s, w) for s, w, _ in book.entries] == [("a", "00"), ("b", "10"), ("c", "11")]
        for _, w, _ in book.entries:
            assert len(w) == 2

    def test_oversum_rejected(self):
        with pytest.raises(AllocationOverflowError):
            shannon_fano([("a", dy(3, 2)), ("b", dy(1, 1))])

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            shannon_fano([("a", dy(1, 2)), ("a", dy(1, 2))])

    def test_matches_oracle_randomized(self):
        rng = random.Random(2024)
        for _ in range(120):
            masses = random_mass_list(rng, max_symbols=12, exp=8)
            book = shannon_fano(masses)
            assert [(s, w) for s, w, _ in book.entries] == oracle_allocate(masses)

    def test_plus_two_bound_and_kraft(self):
        rng = random.Random(7)
        for _ in range(120):
            masses = random_mass_list(rng, max_symbols=16, exp=10)
            book = shannon_fano(masses)
            words = [w for _, w, _ in book.entries]
            assert is_prefix_free(words)
            assert kraft_sum(words) <= ONE
            for (_, w, _), (_, p) in zip(book.entries, masses):
                assert len(w) <= p.ceil_log2_reciprocal() + 2


def random_mass_list(rng, max_symbols, exp):
    n = rng.randint(1, max_symbols)
    budget = 1 << exp
    masses = []
    for i in range(n):
        if budget == 0:
            break
        hi = max(1, budget // max(1, (n - i)))
        take = rng.randint(1, hi)
        budget -= take
        masses.append((f"s{i}", dy(take, exp)))
    return masses


def staircase_phi(levels):
    """levels: {(x_index, y_index): [dyadic, ...]} nondecreasing over t."""

    def fn(x, y, t):
        seq = levels.get((x, y), ())
        if not seq:
            return ZERO
        return seq[min(t, len(seq)) - 1]

    return MonotoneApproximator(fn)


class TestPsiDiscretize:
    def test_single_jump_single_event(self):
        phi = staircase_phi({(1, 1): [dy(1, 1)]})
        evs = list(psi_discretize(phi, 1, 8))
        assert [(e.x, e.mass) for e in evs] == [("", dy(1, 1))]

    def test_climbing_staircase(self):
        phi = staircase_phi({(1, 1): [dy(1, 3), dy(1, 2), dy(1, 1)]})
        evs = list(psi_discretize(phi, 1, 10))
        assert [e.mass for e in evs] == [dy(1, 3), dy(1, 2), dy(1, 1)]
        total = sum((e.mass for e in evs), ZERO)
        assert total == dy(7, 3)
        assert total < dy(1, 1) + dy(1, 1)

    def test_zero_stream_no_events(self):
        phi = MonotoneApproximator.constant(ZERO)
        assert list(psi_discretize(phi, 1, 8)) == []

    def test_skipped_brackets_are_not_emitted(self):
        phi = staircase_phi({(1, 1): [dy(5, 3)]})   # jumps straight into [1/2, 1)
        evs = list(psi_discretize(phi, 1, 8))
        assert [e.mass for e in evs] == [dy(1, 1)]

    def test_masses_strictly_increase_per_point(self):
        phi = staircase_phi({(1, 1): [dy(1, 3), dy(3, 3), dy(3, 2), dy(7, 3)]})
        evs = list(psi_discretize(phi, 1, 12))
        masses = [e.mass for e in evs]
        assert masses == sorted(set(masses), key=lambda d: d.to_fraction())

    def test_non_monotone_stream_raises(self):
        phi = MonotoneApproximator(lambda x, y, t: dy(1, 1) if t == 1 else dy(1, 2))
        with pytest.raises(Exception):
            list(psi_discretize(phi, 1, 6))


monotone_staircases = st.lists(
    st.integers(1, 1 << 10), min_size=1, max_size=8
).map(lambda raw: [dy(v, 10) for v in sorted(raw)])


class TestPsiProperties:
    @given(monotone_staircases)
    def test_sum_strictly_below_twice_sup(self, seq):
        phi = staircase_phi({(1, 1): seq})
        evs = list(psi_discretize(phi, 1, len(seq) + 2))
        total = sum((e.mass for e in evs), ZERO)
        sup = seq[-1]
        assert total < sup + sup

    @given(monotone_staircases)
    def test_masses_distinct_increasing_and_bracket_sup(self, seq):
        phi = staircase_phi({(1, 1): seq})
        evs = list(psi_discretize(phi, 1, len(seq) + 2))
        masses = [e.mass for e in evs]
        assert len(set(masses)) == len(masses)
        for a, b in zip(masses, masses[1:]):
            assert a < b
        # the last event's bracket contains the supremum
        sup = seq[-1]
        assert masses[-1] <= sup < masses[-1] + masses[-1]

    @given(monotone_staircases)
    def test_events_are_replayable(self, seq):
        phi = staircase_phi({(1, 1): seq})
        for ev in psi_discretize(phi, 1, len(seq) + 2):
            v = seq[min(ev.t, len(seq)) - 1]
            assert ev.mass <= v < ev.mass + ev.mass


class TestBuildCodebook:
    def test_worked_example(self):
        phi = staircase_phi({(1, 1): [dy(1, 1)], (2, 1): [ZERO, dy(1, 2)]})
        book = build_codebook(phi, "", 10)
        assert [(s, w, str(iv.lo), str(iv.hi)) for s, w, iv, _ in book.entries] == [
            ("", "00", "0/2^0", "1/2^2"),
            ("0", "010", "1/2^2", "3/2^3"),
        ]

    def test_point_mass(self):
        phi = staircase_phi({(1, 1): [ONE]})
        book = build_codebook(phi, "", 8)
        assert book.codeword("") == "0"

    def test_roundtrip_and_misses(self):
        phi = staircase_phi({(1, 1): [dy(1, 2), dy(1, 1)], (2, 1): [dy(1, 2)]})
        book = build_codebook(phi, "", 12)
        for sym in book.symbols():
            assert decode(book, book.codeword(sym), "") == sym
        assert decode(book, "111111", "") is None
        word = book.codeword("")
        assert decode(book, word[:-1], "") is None
        with pytest.raises(AuxMismatchError):
            decode(book, word, "1")

    def test_shorter_codewords_come_from_later_events(self):
        phi = staircase_phi({(1, 1): [dy(1, 3), dy(1, 2), dy(1, 1)]})
        book = build_codebook(phi, "", 12)
        lengths = [len(w) for _, w, _, _ in book.entries]
        assert lengths == sorted(lengths, reverse=True)
        assert book.codeword("") == min((w for _, w, _, _ in book.entries), key=len)

    def test_overflow_is_hard_error(self):
        phi = MonotoneApproximator(lambda x, y, t: ONE)   # every x claims 1/2
        with pytest.raises(AllocationOverflowError):
            build_codebook(phi, "", 12)

    def test_max_events_truncates_prefix_of_the_stream(self):
        phi_full = staircase_phi({(1, 1): [dy(1, 3), dy(1, 2), dy(1, 1)], (2, 1): [dy(1, 2)]})
        full = build_codebook(phi_full, "", 12)
        phi_cut = staircase_phi({(1, 1): [dy(1, 3), dy(1, 2), dy(1, 1)], (2, 1): [dy(1, 2)]})
        cut = build_codebook(phi_cut, "", 12, max_events=2)
        assert len(cut.entries) == 2
        assert cut.entries == full.entries[:2]

    def test_text_roundtrip(self):
        phi = staircase_phi({(1, 1): [dy(1, 2), dy(1, 1)], (3, 1): [dy(1, 3)]})
        book = build_codebook(phi, "", 12)
        text = format_codebook(book)
        again = parse_codebook(text)
        assert [(s, w, iv) for s, w, iv, _ in again.entries] == [
            (s, w, iv) for s, w, iv, _ in book.entries
        ]
        assert format_codebook(again) == text


def random_staircase_mixture(rng, max_symbols=8, exp=6, max_levels=5):
    """Random final masses with sum <= 1, each approached by a random
    nondecreasing dyadic staircase."""
    targets = random_mass_list(rng, max_symbols, exp)
    levels = {}
    for i, (sym, target) in enumerate(targets):
        n_levels = rng.randint(1, max_levels)
        seq = sorted(
            (dy(rng.randint(1, target.num << max(0, exp - target.exp)), exp) for _ in range(n_levels - 1)),
            key=lambda d: d.to_fraction(),
        )
        seq = [min(v, target) for v in seq] + [target]
        levels[(i + 1, 1)] = seq
    return targets, levels


def oracle_codebook(levels, max_stage):
    """Independent event-coder: fractions everywhere, thresholds found by
    scanning powers of two, codewords by the linear word scan."""
    entries = []
    cursor = Fraction(0)
    best = {}
    for s in range(2, max_stage + 1):
        for x in range(1, s):
            t = s - x
            seq = levels.get((x, 1), ())
            if not seq:
                continue
            v = seq[min(t, len(seq)) - 1].to_fraction()
            if v == 0:
                continue
            k = 0
            while Fraction(1, 2**k) > v:
                k += 1
            threshold = Fraction(1, 2**k)
            if best.get(x, Fraction(0)) < threshold:
                word = oracle_largest_word(cursor, cursor + threshold / 2)
                entries.append((index_word(x), word))
                cursor += threshold / 2
            best[x] = max(best.get(x, Fraction(0)), v)
    return entries


class TestBounds:
    def test_matches_independent_allocator(self):
        rng = random.Random(424242)
        for trial in range(60):
            targets, levels = random_staircase_mixture(rng)
            book = build_codebook(staircase_phi(levels), "", 40)
            got = [(sym, word) for sym, word, _, _ in book.entries]
            assert got == oracle_codebook(levels, 40), trial

    def test_factor_eight_and_roundtrip_randomized(self):
        from kolmo.exact_arith import BinaryInterval

        rng = random.Random(31337)
        for trial in range(80):
            targets, levels = random_staircase_mixture(rng)
            phi = staircase_phi(levels)
            book = build_codebook(phi, "", 40)
            words = [w for _, w, _, _ in book.entries]
            assert is_prefix_free(words)
            assert kraft_sum(words) <= ONE
            for _, word, iv, _ in book.entries:
                binary = BinaryInterval(word)
                assert iv.contains(binary.interval())
                assert binary.length + binary.length >= iv.length
            for i, (sym_name, target) in enumerate(targets):
                sym = index_word(i + 1)
                word = book.codeword(sym)
                assert word is not None, trial
                # 2^-|p| >= sup/8, i.e. |p| <= ceil(log2 1/sup) + 3
                assert Dyadic.pow2(len(word)) * dy(8) >= target, (trial, sym_name)
                assert len(word) <= target.ceil_log2_reciprocal() + 3
                assert decode(book, word, "") == sym

    def test_psi_sum_below_twice_sup(self):
        rng = random.Random(1234)
        for trial in range(80):
            targets, levels = random_staircase_mixture(rng)
            phi = staircase_phi(levels)
            sums = {}
            for ev in psi_discretize(phi, 1, 40):
                key = ev.x
                sums[key] = sums.get(key, ZERO) + ev.mass
            for i, (_, target) in enumerate(targets):
                sym = index_word(i + 1)
                assert sums[sym] < target + target, trial


class TestDecoderMachine:
    def test_compiled_decoder_matches_lookup(self):
        phi = staircase_phi({(1, 1): [dy(1, 2), dy(1, 1)], (2, 1): [dy(1, 3)], (5, 1): [dy(1, 3)]})
        book = build_codebook(phi, "", 16)
        machine = codebook_to_machine(book)
        for sym, word, _, _ in book.entries:
            r = run(machine, word, "", 10_000)
            assert r.kind is Outcome.HALTED and r.output == sym, (sym, word)
        # non-codewords diverge
        for bad in ("1111111111", book.entries[0][1] + "0"):
            if decode(book, bad, "") is None:
                assert run(machine, bad, "", 10_000).kind is not Outcome.HALTED

    def test_compiled_decoder_respects_budget_example(self):
        phi = staircase_phi({(1, 1): [ONE]})
        book = build_codebook(phi, "", 8)
        machine = codebook_to_machine(book)
        r = run(machine, "0", "", 100)
        assert r.kind is Outcome.HALTED and r.output == ""


class TestGapReports:
    def test_copy2_rows(self):
        rows = coding_gap_report_machine(load_fixture("copy2"), "", 60, 6, 60)
        assert len(rows) == 4
        for row in rows:
            assert row.k_bits == 2
            assert row.q_mass == dy(1, 2)   # 1/4
            assert row.k_vs_q_ok
            assert row.code_bound_ok
            assert row.k_bits - row.neg_log_q_ceil == 0

    def test_point_mass_mixture_row(self):
        from kolmo.semimeasures import ConditionalSemimeasure

        table = ConditionalSemimeasure({(1, 1): ONE}, stage=6)
        spec = MixtureSpec(((0, table),))
        (row,) = coding_gap_report_mixture(spec, "", 6)
        assert row.code_len == 1 and row.neg_log_m_ceil == 0
        assert row.code_len - row.neg_log_m_ceil == 1   # within the +3 allowance
        assert row.code_bound_ok

    def test_machine_stream_feeds_codebook(self):
        m = load_fixture("echo1")
        phi = machine_mass_stream(m, 30, 6)
        book = build_codebook(phi, "", 40)
        for sym in ("0", "1"):
            word = book.codeword(sym)
            assert word is not None
            assert Dyadic.pow2(len(word)) * dy(8) >= dy(1, 1)


# -- the mass streams against the stage functions they replaced -------------

def scanning_machine_stream(m, max_stage, length_bound):
    """The per-word scanning stream: stairs keyed by output word, x
    turned into its word on every sample, a linear scan up to stage
    min(t, max_stage).  Referee for machine_mass_stream."""
    cache = {}

    def staircase(y_index):
        if y_index not in cache:
            acc, stairs = {}, {}
            for ev in dovetail(m, index_word(y_index), max_stage):
                if len(ev.program) > length_bound:
                    continue
                acc[ev.output] = acc.get(ev.output, ZERO) + Dyadic.pow2(len(ev.program))
                stairs.setdefault(ev.output, []).append((ev.stage, acc[ev.output]))
            cache[y_index] = stairs
        return cache[y_index]

    def fn(x, y, t):
        value = ZERO
        for stage, v in staircase(y).get(index_word(x), ()):
            if stage > min(t, max_stage):
                break
            value = v
        return value

    return MonotoneApproximator(fn)


def restaged_mixture_stream(spec, max_stage):
    """The mixture rebuilt from stage 1 for every t.  Referee for
    mixture_mass_stream."""
    tables = {t: mixture(spec, t) for t in range(1, max_stage + 1)}
    return MonotoneApproximator(lambda x, y, t: tables[min(t, max_stage)].mass(x, y))


class TestMassStreamsAgainstReferees:
    # the fixtures' programs are 0-3 bits long, and some of them halt at
    # exactly stage 10 (copy2), 16 (twoway), 18 or 66 (ident): these
    # bounds cut programs off and end the dovetailing on a halting stage
    BOUNDS = [(60, 6), (60, 2), (10, 2), (16, 3), (18, 3), (66, 3)]

    @pytest.mark.parametrize("name", fixture_names())
    def test_machine_stream_matches_scanning_stream(self, name):
        m = load_fixture(name)
        for max_stage, length_bound in self.BOUNDS:
            for aux in ("", "1"):
                y = word_index(aux)
                outputs = {ev.output for ev in dovetail(m, aux, max_stage)}
                max_x = max((word_index(w) for w in outputs), default=1) + 2
                mine = machine_mass_stream(m, max_stage, length_bound)
                referee = scanning_machine_stream(m, max_stage, length_bound)
                for x in range(1, max_x + 1):
                    for t in range(1, max_stage + 3):
                        assert mine(x, y, t) == referee(x, y, t), (name, max_stage, length_bound, aux, x, t)

    def mixture_specs(self):
        rng = random.Random(2718)
        for trial in range(12):
            comps = []
            for e in bar_weight_exponents(rng.randint(1, 4)):
                rows = []
                for x, y in rng.sample([(x, y) for x in range(1, 5) for y in range(1, 5)], rng.randint(0, 6)):
                    stages = sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
                    values = sorted(rng.randint(0, 9) for _ in stages)
                    if rng.random() < 0.1:
                        values.reverse()   # not monotone: both streams must raise alike
                    rows += [(x, y, k, dy(v, 3)) for k, v in zip(stages, values)]
                # some columns overflow, freezing a stream's clamping pass
                if rng.random() < 0.4:
                    comps.append((e, ConditionalSemimeasure({(x, y): v for x, y, _, v in rows}, stage=6)))
                else:
                    comps.append((e, MonotoneApproximator.from_table(rows)))
            yield MixtureSpec(tuple(comps))
        yield MixtureSpec(())

    def test_mixture_stream_matches_restaged_mixture(self):
        max_stage = 6
        specs = list(self.mixture_specs())
        # the same specs drawn twice, so each stream samples fresh approximators
        for spec, again in zip(specs, self.mixture_specs()):
            try:
                referee = restaged_mixture_stream(spec, max_stage)
            except MonotonicityError as err:
                with pytest.raises(MonotonicityError) as got:
                    mixture_mass_stream(again, max_stage)
                assert got.value.point == err.point
                continue
            mine = mixture_mass_stream(again, max_stage)
            for x in range(1, 6):
                for y in range(1, 6):
                    for t in range(1, max_stage + 3):
                        assert mine(x, y, t) == referee(x, y, t), (spec, x, y, t)

    def test_overweight_spec_raises_the_same_weight_error_before_sampling(self):
        calls = []

        def fn(x, y, k):
            calls.append((x, y, k))
            return ONE

        table = ConditionalSemimeasure({(1, 1): ONE}, stage=3)
        spec = MixtureSpec(((1, table),))
        # specs validate on construction; this one is overweight all the same
        object.__setattr__(spec, "components", ((0, table), (1, MonotoneApproximator(fn))))
        with pytest.raises(WeightError) as want:
            restaged_mixture_stream(spec, 3)
        with pytest.raises(WeightError) as got:
            mixture_mass_stream(spec, 3)
        assert str(got.value) == str(want.value)
        assert calls == []

    @pytest.mark.parametrize("max_stage", [0, -1])
    def test_mixture_stream_rejects_a_stage_bound_below_1(self, max_stage):
        # the same bound and message as mixture and normalize_stages
        table = ConditionalSemimeasure({(1, 1): ONE}, stage=1)
        for spec in (MixtureSpec(()), MixtureSpec(((1, table),))):
            with pytest.raises(ValueError, match="max_stage must be positive"):
                mixture(spec, max_stage)
            with pytest.raises(ValueError, match="max_stage must be positive"):
                mixture_mass_stream(spec, max_stage)


# -- the threshold sweep against the sampling sweep it replaced ------------

GOLDEN = Path(__file__).parent / "golden"


def per_condition_schedule(y_index, max_stage):
    """(x, t) sweep for one condition: all pairs with x + t = s, stages
    ascending, x ascending within a stage."""
    for s in range(2, max_stage + 1):
        for x in range(1, s):
            yield (x, y_index, s - x)


def sampling_psi_discretize(phi, schedule, max_events=None):
    """The sweep that samples every scheduled point and keeps the running
    supremum per (x, y).  Referee for psi_discretize."""
    emitted = 0
    prev_sup = {}
    for x, y, t in schedule:
        if max_events is not None and emitted >= max_events:
            return
        v = phi(x, y, t)
        if v.is_zero:
            continue
        if v > ONE:
            raise ValueError(f"estimate {v} above 1 at (x={x}, y={y}, t={t})")
        threshold = Dyadic.pow2(v.ceil_log2_reciprocal())
        if prev_sup.get((x, y), ZERO) < threshold:
            yield PsiEvent(index_word(x), index_word(y), t, threshold)
            emitted += 1
        sup = prev_sup.get((x, y), ZERO)
        if v > sup:
            prev_sup[(x, y)] = v


def sweep_outcome(events):
    """The events up to the first exception, and that exception's type
    and message."""
    got = []
    try:
        for ev in events:
            got.append(ev)
    except Exception as err:
        return got, (type(err), str(err))
    return got, None


# mostly masses up to 20/16, so some above 1; index 21 is not a dyadic
table_values = st.integers(0, 21).map(lambda n: dy(n, 4) if n <= 20 else Fraction(1, 2))
table_rows = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 2), st.integers(-2, 12), table_values), max_size=14
)


def ident_code_build_bound(max_stage, length_bound):
    """The sweep bound ``kolmo code build -m ident`` uses."""
    support = approx_apriori(load_fixture("ident"), "", max_stage, length_bound).entries
    return max_stage + max(word_index(x) for x in support) + 1


class TestStairSweep:
    @settings(max_examples=600, deadline=None)
    @given(table_rows, st.integers(1, 2), st.integers(1, 20), st.none() | st.integers(0, 5))
    def test_matches_the_sampling_sweep_on_tables(self, rows, y, max_stage, max_events):
        # unsorted rows, repeated stages, stages <= 0, falling stairs,
        # values above 1 and non-dyadic values: same events, same error
        mine = psi_discretize(MonotoneApproximator.from_table(rows), y, max_stage, max_events)
        referee = sampling_psi_discretize(
            MonotoneApproximator.from_table(rows), per_condition_schedule(y, max_stage), max_events
        )
        assert sweep_outcome(mine) == sweep_outcome(referee)

    @pytest.mark.parametrize("name", fixture_names())
    def test_matches_the_sampling_sweep_on_machine_streams(self, name):
        m = load_fixture(name)
        for max_stage, length_bound in TestMassStreamsAgainstReferees.BOUNDS + [(200, 8)]:
            for aux in ("", "1"):
                y = word_index(aux)
                outputs = {ev.output for ev in dovetail(m, aux, max_stage)}
                sweep = max_stage + max((word_index(w) for w in outputs), default=1) + 1
                mine = psi_discretize(machine_mass_stream(m, max_stage, length_bound), y, sweep)
                referee = sampling_psi_discretize(
                    machine_mass_stream(m, max_stage, length_bound), per_condition_schedule(y, sweep)
                )
                assert sweep_outcome(mine) == sweep_outcome(referee), (name, max_stage, length_bound, aux)

    def test_generic_streams_are_sampled_at_every_point(self):
        seen = []
        phi = MonotoneApproximator(lambda x, y, t: seen.append((x, t)) or ZERO)
        assert list(psi_discretize(phi, 1, 6)) == []
        assert seen == [(x, t) for x, _, t in per_condition_schedule(1, 6)]

    def test_samples_a_machine_stream_at_most_once_per_stair(self, monkeypatch):
        # ``code build -m ident --max-stage 400 -L 10``: the sampling
        # sweep made 86,320 approximator calls for its 15 events
        m = load_fixture("ident")
        sweep = ident_code_build_bound(400, 10)
        stairs = {
            (word_index(ev.output), ev.stage)
            for ev in dovetail(m, "", 400)
            if len(ev.program) <= 10 and word_index(ev.output) + ev.stage <= sweep
        }
        calls = []
        call = MonotoneApproximator.__call__

        def counting_call(phi, x, y, k):
            calls.append((x, k))
            return call(phi, x, y, k)

        monkeypatch.setattr(MonotoneApproximator, "__call__", counting_call)
        events = list(psi_discretize(machine_mass_stream(m, 400, 10), 1, sweep))
        assert len(events) == 15
        assert len(calls) <= len(stairs)
        assert set(calls) <= stairs

    def test_codebook_memory_does_not_grow_with_the_sweep(self):
        # the sampling sweep kept every sample: 2M of them, about 100 MB
        sweep = ident_code_build_bound(2000, 14)
        phi = machine_mass_stream(load_fixture("ident"), 2000, 14)
        tracemalloc.start()
        try:
            book = build_codebook(phi, "", sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(book.entries) == 31
        assert peak < 1 << 20

    def test_code_build_golden(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kolmo.cli", "code", "build", "-m", "ident", "--max-stage", "2000", "-L", "14"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "book_ident_2000_14.tsv").read_text()
