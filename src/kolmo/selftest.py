"""Deterministic invariant battery behind ``kolmo selftest``.

Every check is exact and seeded; two runs print byte-identical output.
Checks raise AssertionError with a short message on violation.
"""

from __future__ import annotations

import random

from . import codes
from .apriori import approx_apriori, apriori_vs_k
from .complexity import approx_k, approx_k_universal
from .exact_arith import Dyadic, Interval, ONE, ZERO, cover_by_binary, largest_binary_subinterval
from .fixtures import fixture_names, load_fixture
from .prefix_vm import Outcome, dovetail, enumerate_machines, halting_programs, machine_description, run
from .semimeasures import MixtureSpec, MonotoneApproximator, bar_weight_exponents, check_domination, mixture, normalize
from .sf_coder import build_codebook, decode, shannon_fano

# first descriptions of the standard enumeration, frozen here so the
# installed package can self-check without the test tree
_ENUM_PREFIX = ("000", "001", "010", "011", "100", "101", "110", "111", "0" * 23)


def _require(cond, msg="") -> None:
    # an explicit raise, so that ``python -O`` cannot strip the check
    if not cond:
        raise AssertionError(msg)


def _check_dyadic():
    a, b = Dyadic(3, 3), Dyadic(5, 4)
    _require((a + b) - b == a)
    _require(a * b == Dyadic(15, 7))
    _require(Dyadic.parse(str(b)) == b)
    _require(sum((Dyadic(1, k) for k in range(1, 9)), ZERO) == Dyadic(255, 8))


def _check_interval_cover():
    n = 1 << 6
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            iv = Interval(Dyadic(lo, 6), Dyadic(hi, 6))
            best = largest_binary_subinterval(iv)
            _require(best.length * Dyadic(4) > iv.length)
            cover = cover_by_binary(iv)
            _require(1 <= len(cover) <= 4)
            _require(cover[0].interval().lo <= iv.lo and iv.hi <= cover[-1].interval().hi)


def _check_codes():
    for n in range(512):
        w = codes.nat_to_string(n)
        _require(codes.string_to_nat(w) == n)
        _require(codes.bar_decode(codes.bar_encode(w) + "10")[0] == w)
        _require(codes.unpair_strings(codes.pair_strings(w, "01")) == (w, "01"))
    bar_words = {codes.bar_encode(codes.nat_to_string(n)) for n in range(15)}
    _require(codes.is_prefix_free(bar_words))
    _require(codes.kraft_sum(bar_words) == Dyadic(15, 4))


def _check_fixture_acceptance():
    m = load_fixture("copy2")
    _require(run(m, "10", "", 64).output == "10")
    _require(run(m, "1", "", 64).kind is Outcome.PAST_END)
    for name in fixture_names():
        machine = load_fixture(name)
        leaves = halting_programs(machine, "", 8, 400)
        _require(codes.is_prefix_free(l.program for l in leaves), name)
        _require(codes.kraft_sum(l.program for l in leaves) <= ONE, name)


def _check_schedulers_agree():
    for name in fixture_names():
        machine = load_fixture(name)
        for aux in ("", "1"):
            _require(dovetail(machine, aux, 64) == dovetail(machine, aux, 64, "staged"), name)
    for i in (9, 10, 117, 118):
        machine = enumerate_machines(i)
        _require(dovetail(machine, "", 48) == dovetail(machine, "", 48, "staged"), i)


def _check_enumeration_frozen():
    got = tuple(machine_description(i) for i in range(1, len(_ENUM_PREFIX) + 1))
    _require(got == _ENUM_PREFIX, "standard enumeration drifted")


def _check_apriori_tables():
    t = approx_apriori(load_fixture("echo1"), "", 32, 6)
    _require(t.entries == {"0": Dyadic(1, 1), "1": Dyadic(1, 1)})
    t2 = approx_apriori(load_fixture("twoway"), "", 64, 6)
    _require(t2.entries == {"1": Dyadic(3, 3)})
    for i in range(1, 33):
        machine = enumerate_machines(i)
        _require(approx_apriori(machine, "", 128, 8).total() <= ONE, i)


def _check_k_vs_q():
    for name in ("halt_now", "echo1", "copy2", "twoway", "ident"):
        machine = load_fixture(name)
        table = approx_apriori(machine, "", 128, 7)
        ests = [approx_k(machine, x, "", 7, 100) for x in table.entries]
        for row in apriori_vs_k(table, [e for e in ests if e]):
            _require(row.ok, (name, row))


def _check_invariance():
    for i in range(9, 21):
        machine = enumerate_machines(i)
        for x in ("", "0", "1"):
            est = approx_k(machine, x, "", 4, 64)
            if est is None:
                continue
            bound = est.bits + codes.bar_length(i)
            est_u = approx_k_universal(x, "", bound, 64)
            _require(est_u is not None and est_u.bits <= bound, (i, x))


def _check_clamping_traces():
    _require(normalize(MonotoneApproximator.constant(ZERO), 5).values == {})
    phi = MonotoneApproximator(lambda x, y, k: Dyadic(1, x) if x <= k else ZERO)
    table = normalize(phi, 5)
    _require(all(table.mass(x, y) == Dyadic(1, x) for x in range(1, 6) for y in range(1, 6)))
    frozen = normalize(MonotoneApproximator.constant(ONE), 5)
    _require(frozen.values == {(1, 1): ONE})


def _check_mixture_domination():
    rng = random.Random(20240)
    for _ in range(20):
        n = rng.randint(1, 4)
        comps = []
        for e in bar_weight_exponents(n):
            masses = {
                (x, y): Dyadic(rng.randint(0, 4), 5)
                for x in range(1, 5)
                for y in range(1, 5)
            }
            comps.append((e, MonotoneApproximator(
                lambda x, y, k, m=masses: m.get((x, y), ZERO) if k >= x else ZERO
            )))
        spec = MixtureSpec(tuple(comps))
        mixed = mixture(spec, 5)
        domain = [(x, y) for x in range(1, 5) for y in range(1, 5)]
        _require(check_domination(mixed, spec, domain))


def _check_static_coder():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 12)
        budget = 1 << 8
        masses = []
        for i in range(n):
            take = rng.randint(1, max(1, budget // (n - i + 1)))
            budget -= take
            masses.append((f"s{i}", Dyadic(take, 8)))
        book = shannon_fano(masses)
        words = [w for _, w, _ in book.entries]
        _require(codes.is_prefix_free(words))
        _require(codes.kraft_sum(words) <= ONE)
        for (_, w, _), (_, p) in zip(book.entries, masses):
            _require(len(w) <= p.ceil_log2_reciprocal() + 2)


def _check_event_coder():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randint(1, 6)
        budget = 1 << 6
        rows = []
        targets = {}
        for i in range(n):
            take = rng.randint(1, max(1, budget // (n - i + 1)))
            budget -= take
            target = Dyadic(take, 6)
            climb = sorted(rng.randint(1, take) for _ in range(rng.randint(0, 3)))
            levels = [Dyadic(c, 6) for c in climb] + [target]
            rows += [(i + 1, 1, t, v) for t, v in enumerate(levels, 1)]
            targets[i + 1] = target

        phi = MonotoneApproximator.from_table(rows)
        book = build_codebook(phi, "", 24)
        sums = {}
        for _, _, iv, ev in book.entries:
            sums[ev.x] = sums.get(ev.x, ZERO) + ev.mass
        for idx, target in targets.items():
            sym = codes.index_word(idx)
            word = book.codeword(sym)
            _require(word is not None)
            _require(Dyadic.pow2(len(word)) * Dyadic(8) >= target)
            _require(decode(book, word, "") == sym)
            _require(sums[sym] < target + target)


def _check_quotient_forms():
    from .quotient_demo import JointTable, mix_joint, quotient_forms

    rng = random.Random(31415)
    for _ in range(40):
        comps = []
        for e in (1, 2, 3):
            pts = rng.sample([("", "0"), ("0", "0"), ("1", "0"), ("0", "1"), ("", "1")], rng.randint(1, 4))
            entries = {xy: Dyadic(rng.randint(1, 8), 6) for xy in pts}
            comps.append((e, JointTable.of(entries)))
        mixed = mix_joint(comps)
        for (x, y), _ in mixed.entries:
            a, b, c = quotient_forms(comps, x, y)
            _require(a == b == c)


CHECKS = [
    ("dyadic-arithmetic", _check_dyadic),
    ("interval-cover", _check_interval_cover),
    ("self-delimiting-codes", _check_codes),
    ("fixture-acceptance", _check_fixture_acceptance),
    ("scheduler-agreement", _check_schedulers_agree),
    ("enumeration-frozen", _check_enumeration_frozen),
    ("mass-tables", _check_apriori_tables),
    ("shortest-program-vs-mass", _check_k_vs_q),
    ("universal-overhead", _check_invariance),
    ("clamping-traces", _check_clamping_traces),
    ("mixture-domination", _check_mixture_domination),
    ("static-coder-bounds", _check_static_coder),
    ("event-coder-bounds", _check_event_coder),
    ("quotient-forms", _check_quotient_forms),
]


def run_selftest(write) -> int:
    """Run every check; returns 0 when all pass, 1 otherwise."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as err:
            failures += 1
            write(f"FAIL {name}: {err}\n")
        else:
            write(f"ok {name}\n")
    if failures:
        write(f"selftest: {failures} of {len(CHECKS)} checks failed\n")
        return 1
    write(f"selftest: {len(CHECKS)} checks passed\n")
    return 0
