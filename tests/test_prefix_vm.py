"""Machine model, description format, enumeration, and the dovetailer.

Fixture behavior is cross-checked two independent ways: direct per-word
runs and the shared-prefix search must report the same accepted set.
"""

import itertools
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from kolmo import prefix_vm
from kolmo.codes import bar_encode, is_prefix_free, nat_to_string, word_index
from kolmo.fixtures import fixture_names, load_fixture
from kolmo.prefix_vm import (
    HALT,
    MARKER,
    NO_BIT,
    Outcome,
    PrefixMachine,
    MachineFormatError,
    decode_description,
    dovetail,
    encode_description,
    enumerate_machines,
    halting_programs,
    machine_description,
    machine_to_text,
    parse_machine_text,
    run,
    universal_run,
)

GOLDEN = Path(__file__).parent / "golden"


def all_words(max_len):
    yield ""
    for n in range(1, max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n)


def accepted_by_direct_runs(m, aux, max_len, budget):
    """Independent oracle: run every word separately."""
    out = {}
    for w in all_words(max_len):
        r = run(m, w, aux, budget)
        if r.kind is Outcome.HALTED:
            out[w] = r.output
    return out


class TestRun:
    def test_halt_now(self):
        m = load_fixture("halt_now")
        assert run(m, "", "", 10) == run(m, "", "1", 10)
        r = run(m, "", "", 10)
        assert r.kind is Outcome.HALTED and r.output == "" and r.bits_read == 0

    def test_copy2(self):
        m = load_fixture("copy2")
        r = run(m, "10", "", 100)
        assert (r.kind, r.output, r.bits_read) == (Outcome.HALTED, "10", 2)
        assert run(m, "1", "", 100).kind is Outcome.PAST_END

    def test_budget_one_on_looper(self):
        looper = parse_machine_text("states 1\n0 - * * -> 0 0 S S . .\n")
        assert run(looper, "", "", 1).kind is Outcome.OUT_OF_FUEL

    def test_tape_walking_looper_is_cut_short(self):
        # marches right writing 1s forever; the translation-invariant
        # snapshot never repeats, the stationary blank pattern does not
        # apply, but a genuine repeat of the all-blank window does
        walker = parse_machine_text("states 1\n0 - * * -> 0 0 R S . .\n")
        assert run(walker, "", "", 10**6).kind is Outcome.OUT_OF_FUEL

    def test_early_halt_reports_consumed_prefix(self):
        m = load_fixture("copy2")
        r = run(m, "101", "", 100)
        assert r.kind is Outcome.PAST_END
        assert r.output == "10" and r.bits_read == 2

    def test_extension_stability(self):
        extensions = [w for w in all_words(3) if w]
        for name in ("halt_now", "echo1", "copy2", "ident"):
            m = load_fixture(name)
            for w, x in accepted_by_direct_runs(m, "", 5, 200).items():
                for ext in extensions:
                    r = run(m, w + ext, "", 200)
                    assert r.kind is Outcome.PAST_END
                    assert r.output == x and r.bits_read == len(w)

    def test_determinism(self):
        m = load_fixture("ident")
        a = [run(m, w, "1", 100) for w in all_words(4)]
        b = [run(m, w, "1", 100) for w in all_words(4)]
        assert a == b


class TestHaltingPrograms:
    def test_matches_direct_runs(self):
        for name in fixture_names():
            m = load_fixture(name)
            for aux in ("", "1"):
                expect = accepted_by_direct_runs(m, aux, 6, 300)
                got = {l.program: l.output for l in halting_programs(m, aux, 6, 300)}
                assert got == expect, name

    def test_prefix_free_by_construction(self):
        for name in fixture_names():
            m = load_fixture(name)
            assert is_prefix_free(l.program for l in halting_programs(m, "", 7, 300))

    def test_ident_accepts_exactly_bar_codes(self):
        m = load_fixture("ident")
        got = {l.program: l.output for l in halting_programs(m, "", 7, 300)}
        expect = {bar_encode(nat_to_string(n)): nat_to_string(n) for n in range(15)}
        assert got == expect

    def test_cache_stays_within_its_cap(self):
        """Every measured reuse of a cached result happens inside one
        computation: the mass table and the mass stream of one machine
        ask for the same dovetail, the per-output searches against one
        table share one search tree.  Nothing is reused across
        computations (the selftest, the universal acceptance sweep and
        the search benchmark hit as often at 64 entries as at 4096),
        while an entry holds up to 2**(bound + 1) leaves, so the cap is
        a few dozen keys: a larger one only keeps dead results alive."""
        cap = halting_programs.cache_info().maxsize
        assert cap is not None and cap <= 64
        for i in range(9, 9 + 3 * cap):
            halting_programs(enumerate_machines(i), "", 4, 32)
        assert halting_programs.cache_info().currsize <= cap

    def test_one_clone_per_read(self, monkeypatch):
        clones = []
        clone = prefix_vm._Sim.clone

        def counting_clone(sim):
            clones.append(1)
            return clone(sim)

        monkeypatch.setattr(prefix_vm._Sim, "clone", counting_clone)
        for m in map(load_fixture, fixture_names()):
            for aux in ("", "1"):
                for bound, budget in ((6, 300), (12, 2000)):
                    clones.clear()
                    want = two_clone_halting_programs(m, aux, bound, budget)
                    referee_clones = len(clones)
                    clones.clear()
                    assert halting_programs.__wrapped__(m, aux, bound, budget) == want   # past the cache
                    assert 2 * len(clones) == referee_clones, (m, aux, bound)
        clones.clear()
        halting_programs.__wrapped__(load_fixture("ident"), "", 18, 10**4)
        assert len(clones) == 1022   # 2,044 when both children were copies


def two_clone_halting_programs(m, aux, length_bound, step_budget):
    """The search that copied the sim for both children at each read and
    dropped the parent.  Referee for halting_programs."""
    leaves = []
    stack = [(prefix_vm._Sim(), "")]
    while stack:
        sim, prefix = stack.pop()
        status = prefix_vm._advance(m, sim, aux, step_budget)
        if status == prefix_vm._HALTED:
            leaves.append(prefix_vm.HaltLeaf(prefix, "".join(sim.out), sim.steps))
        elif status == prefix_vm._READ and len(prefix) < length_bound:
            for bit in (1, 0):
                child = sim.clone()
                child.pending = bit
                child.bits_read += 1
                stack.append((child, prefix + ("1" if bit else "0")))
    leaves.sort(key=lambda l: (len(l.program), l.program))
    return tuple(leaves)


def chain_looper(mu, lam):
    """States 0..mu+lam-1 in a row, the last one going back to state mu:
    no tape, no reads, lead-in mu, period lam."""
    lines = [f"states {mu + lam}"]
    for q in range(mu + lam):
        nxt = q + 1 if q + 1 < mu + lam else mu
        lines.append(f"{q} - * * -> {nxt} 0 S S . .")
    return parse_machine_text("\n".join(lines) + "\n")


# writes a block of three 1s, then bounces at its right end, clearing and
# rewriting its last cell: lead-in 3, period 4 (states 3 -> 4 -> 5 -> 6 -> 3)
WRITING_BOUNCER = """states 7
0 - * * -> 1 1 R S . .
1 - * * -> 2 1 R S . .
2 - * * -> 3 1 R S . .
3 - * 0 -> 4 0 L S . .
4 - * 1 -> 5 0 R S . .
5 - * 0 -> 6 0 L S . .
6 - * 0 -> 3 1 R S . .
"""

# WRITING_BOUNCER after one read, with its states shifted by one
READING_BOUNCER = """states 8
0 - * * -> 1 0 S R . r
1 * * * -> 2 1 R S . .
2 - * * -> 3 1 R S . .
3 - * * -> 4 1 R S . .
4 - * 0 -> 5 0 L S . .
5 - * 1 -> 6 0 R S . .
6 - * 0 -> 7 0 L S . .
7 - * 0 -> 4 1 R S . .
"""

# writes 1s to its right for ever: no state repeats
WRITING_WALKER = "states 1\n0 - * * -> 0 1 R S . .\n"


def first_repeat(m, program, aux):
    """(steps before the last read, mu, lam): the literal first repeat of
    the full dynamic state after the last read, found by keeping every
    state.  Referee for the loop check's bound."""
    sim, seen, start = prefix_vm._Sim(), {}, 0
    while True:
        snap = sim.snapshot()
        if snap in seen:
            return start, seen[snap], len(seen) - seen[snap]
        seen[snap] = len(seen)
        status = prefix_vm._step(m, sim, aux)
        assert status != prefix_vm._STUCK and sim.state != HALT
        if status == prefix_vm._READ:
            sim.pending = int(program[sim.bits_read])
            sim.bits_read += 1
            seen, start = {}, sim.steps


class TestLoopCheck:
    """A repeat of the dynamic state with no read in between proves a
    loop; it is caught against one checkpoint (Brent 1980), not a set of
    every state, so it is noticed later than the first repeat, within a
    stated bound, and memory stays linear in the steps taken."""

    LOOPERS = [
        # (machine, program, aux, steps before the last read, mu, lam)
        (parse_machine_text("states 1\n0 - * * -> 0 0 S S . .\n"), "", "", 0, 0, 1),
        (parse_machine_text("states 1\n0 - * * -> 0 0 R S . .\n"), "", "", 0, 0, 1),
        (chain_looper(5, 3), "", "", 0, 5, 3),
        (chain_looper(1, 6), "", "", 0, 1, 6),
        (chain_looper(9, 2), "", "", 0, 9, 2),
        (chain_looper(0, 12), "", "", 0, 0, 12),
        (parse_machine_text(WRITING_BOUNCER), "", "", 0, 3, 4),
        (parse_machine_text(READING_BOUNCER), "1", "01", 1, 3, 4),
    ]

    @pytest.mark.parametrize("case", range(len(LOOPERS)))
    def test_loop_reported_within_three_times_lead_in_plus_period(self, case, monkeypatch):
        m, program, aux, start, mu, lam = self.LOOPERS[case]
        assert first_repeat(m, program, aux) == (start, mu, lam)
        calls = []
        real_step = prefix_vm._step

        def counting_step(*args):
            calls.append(1)
            return real_step(*args)

        monkeypatch.setattr(prefix_vm, "_step", counting_step)
        assert run(m, program, aux, 10**6).kind is Outcome.OUT_OF_FUEL
        # not before the state has repeated, not after the stated bound
        assert start + mu + lam <= len(calls) <= start + 3 * (mu + lam)
        if not program:
            calls.clear()
            assert halting_programs.__wrapped__(m, aux, 0, 10**6) == ()   # past the cache
            assert mu + lam <= len(calls) <= 3 * (mu + lam)

    def test_writing_walker_memory_is_linear_in_the_budget(self):
        # a set of every state since the last read holds about 190 MB at
        # 2,000 steps; one checkpoint keeps the tape and one copy of it
        m = parse_machine_text(WRITING_WALKER)
        for budget in (2_000, 10_000):
            tracemalloc.start()
            try:
                assert run(m, "", "", budget).kind is Outcome.OUT_OF_FUEL
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000 * budget, (budget, peak)   # 2 MB at 2,000 steps

    # each one repeats its control state, pending bit and aux position
    # with other tape contents, or across a read, and halts after all
    HALTERS = [
        # (machine, aux, accepted programs with their outputs)
        # toggles its cell, then halts on the 1 it wrote
        ("states 1\n0 - * 0 -> 0 1 S S . .\n0 - * 1 -> H 0 S S 1 .\n", "", {"": "1"}),
        # marks both ends of a stretch as long as aux, then walks back
        # over it in state 2: the same mark count, moved relative to the head
        ("states 3\n0 - 1 0 -> 1 1 R R . .\n1 - 1 0 -> 1 0 R R . .\n"
         "1 - $ 0 -> 2 1 L S . .\n2 - $ 0 -> 2 0 L S . .\n2 - $ 1 -> H 0 S S 0 .\n", "111", {"": "0"}),
        # after the read only the pending bit tells the next state from
        # the one before it
        ("states 2\n0 - * * -> 1 0 S S . r\n1 0 * * -> 1 0 S S . .\n"
         "1 1 * * -> H 0 S S 1 .\n1 - * * -> H 0 S S 0 .\n", "", {"0": "0", "1": "1"}),
        # reads until a 1: the state before each read comes back after it
        ("states 2\n0 - * * -> 1 0 S S . r\n1 0 * * -> 0 0 S S . .\n1 1 * * -> H 0 S S . .\n",
         "", {"0" * k + "1": "" for k in range(6)}),
    ]

    @pytest.mark.parametrize("case", range(len(HALTERS)))
    def test_repeats_that_are_not_loops(self, case):
        text, aux, accepted = self.HALTERS[case]
        m = parse_machine_text(text)
        assert accepted_by_direct_runs(m, aux, 6, 100) == accepted
        assert {l.program: l.output for l in halting_programs(m, aux, 6, 100)} == accepted
        events = dovetail(m, aux, 200, "staged")
        assert {e.program: e.output for e in events if len(e.program) <= 6} == accepted
        assert dovetail(m, aux, 200) == events


class TestDovetail:
    def test_halt_now_single_event(self):
        m = load_fixture("halt_now")
        evs = dovetail(m, "", 5)
        assert len(evs) == 1
        assert (evs[0].program, evs[0].output, evs[0].stage) == ("", "", 2)

    def test_copy2_four_events(self):
        evs = dovetail(load_fixture("copy2"), "", 12)
        assert [(e.program, e.output) for e in evs] == [
            ("00", "00"), ("01", "01"), ("10", "10"), ("11", "11"),
        ]

    def test_event_list_monotone_in_stage(self):
        m = load_fixture("ident")
        prev = []
        for s in range(1, 40):
            evs = dovetail(m, "", s)
            assert evs[: len(prev)] == prev
            prev = evs

    def test_schedulers_agree(self):
        for name in fixture_names():
            m = load_fixture(name)
            for aux in ("", "1"):
                assert dovetail(m, aux, 60) == dovetail(m, aux, 60, "staged"), name

    def test_staged_scheduler_spells_each_program_once(self, monkeypatch):
        words = []
        index_word = prefix_vm.index_word

        def counting_index_word(j):
            words.append(j)
            return index_word(j)

        monkeypatch.setattr(prefix_vm, "index_word", counting_index_word)
        dovetail(load_fixture("ident"), "", 200, "staged")
        assert sorted(words) == list(range(1, 200))

    def test_schedulers_agree_on_enumerated(self):
        for i in list(range(1, 30)) + [117, 118, 200]:
            m = enumerate_machines(i)
            assert dovetail(m, "", 40) == dovetail(m, "", 40, "staged"), i

    def test_stage_arithmetic(self):
        # the j-th program in length-lex order halting after c steps is
        # reported at stage j + c
        m = load_fixture("echo1")
        evs = dovetail(m, "", 10)
        for e in evs:
            assert e.stage == word_index(e.program) + 2   # echo1 halts in 2 steps


def valid_entries(n_states):
    """All valid 20-bit entries in ascending bit order."""
    for state in range(n_states):
        for pending in (NO_BIT, 0, 1):
            for aux in (MARKER, 0, 1):
                for work in (0, 1):
                    key = (state, pending, aux, work)
                    for nc in range(n_states + 1):
                        nxt = HALT if nc == 0 else nc - 1
                        for write in (0, 1):
                            for wmove in (0, -1, 1):
                                for amove in (0, -1, 1):
                                    for out in (None, 0, 1):
                                        for read in (False, True):
                                            yield key, (nxt, write, wmove, amove, out, read)


def entry_tuples(pool, n_entries):
    """Ordered n-tuples from ``pool`` with pairwise distinct keys, in pool order."""
    for combo in itertools.product(pool, repeat=n_entries):
        if len({k for k, _ in combo}) == n_entries:
            yield combo


def referee_machines():
    """(state count, entries) of every valid description in enumeration
    order: the literal walk over headers and entry tuples."""
    for n_entries in itertools.count():
        for n_states in range(1, 9):
            for combo in entry_tuples(list(valid_entries(n_states)), n_entries):
                yield n_states, combo


def assert_position(i, n_states, entries):
    m = enumerate_machines(i)
    assert (m.n_states, m.entries, m.index, m.name) == (n_states, entries, i, f"T{i}"), i


class TestEnumeration:
    def test_decoder_matches_referee_on_first_20000(self):
        for i, (n_states, entries) in enumerate(itertools.islice(referee_machines(), 20_000), 1):
            assert_position(i, n_states, entries)

    def test_decoder_matches_referee_at_two_entry_block_ends(self):
        pools = {n: list(valid_entries(n)) for n in range(1, 9)}
        start = 1 + 8 + sum(len(pool) for pool in pools.values())
        assert start == 466_569
        for n in range(1, 9):
            # ordered pairs minus those sharing a situation key
            size = len(pools[n]) ** 2 - sum(c * c for c in Counter(k for k, _ in pools[n]).values())
            if n in (1, 2, 8):
                first = itertools.islice(entry_tuples(pools[n], 2), 1000)
                for i, combo in enumerate(first, start):
                    assert_position(i, n, combo)
                last = itertools.islice(entry_tuples(pools[n][::-1], 2), 1000)
                for i, combo in enumerate(last):
                    assert_position(start + size - 1 - i, n, combo)
            start += size

    def test_first_two_entry_machine_in_bounded_memory(self):
        tracemalloc.start()
        try:
            m = enumerate_machines(466_569)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (m.n_states, len(m.entries)) == (1, 2)
        assert peak < 1 << 20

    def test_positions_past_the_last_description(self):
        # at most 8 states, so at most 144 entries: the order is finite
        with pytest.raises(ValueError, match="no valid description"):
            enumerate_machines(10**1000)

    def test_positions_start_at_1(self):
        for i in (0, -3):
            with pytest.raises(ValueError, match="machine positions start at 1"):
                enumerate_machines(i)
            with pytest.raises(ValueError, match="machine positions start at 1"):
                machine_description(i)

    def test_golden_first_100(self):
        want = (GOLDEN / "machine_descriptions.txt").read_text().splitlines()
        got = [machine_description(i) for i in range(1, 101)]
        assert got == want

    def test_roundtrip(self):
        for i in range(1, 101):
            d = machine_description(i)
            m = decode_description(d)
            assert m == enumerate_machines(i)
            assert encode_description(m) == d

    def test_first_machines_are_headers_only(self):
        for i in range(1, 9):
            m = enumerate_machines(i)
            assert m.n_states == i and m.entries == ()

    def test_machine_9_halts_immediately(self):
        r = run(enumerate_machines(9), "", "", 10)
        assert r.kind is Outcome.HALTED and r.output == ""

    def test_invalid_descriptions_rejected(self):
        assert decode_description("0000") is None                  # bad length
        assert decode_description("000" + "1" + "0" * 19) is None  # state 4 of 1
        assert decode_description("000" + "0001111" + "0" * 13) is None  # next=15


class TestUniversal:
    def test_agrees_with_direct_run_exhaustively(self):
        for i in range(1, 21):
            m = enumerate_machines(i)
            prefix = bar_encode(nat_to_string(i))
            for aux in ("", "1"):
                for p in all_words(6):
                    direct = run(m, p, aux, 64)
                    via_u = universal_run(prefix + p, aux, 64)
                    assert via_u.kind == direct.kind, (i, p, aux)
                    if direct.kind is Outcome.HALTED:
                        assert via_u.output == direct.output
                        assert via_u.bits_read == len(prefix) + len(p)

    def test_unparseable_index(self):
        assert universal_run("111", "", 10).kind is Outcome.PAST_END
        assert universal_run("0", "", 10).kind is Outcome.PAST_END   # index 0

    def test_prefix_freeness_of_universal_programs(self):
        programs = []
        for i in range(9, 12):
            prefix = bar_encode(nat_to_string(i))
            for leaf in halting_programs(enumerate_machines(i), "", 4, 64):
                programs.append(prefix + leaf.program)
        assert is_prefix_free(programs)


class TestTextFormat:
    def test_roundtrip_through_text(self):
        for name in fixture_names():
            m = load_fixture(name)
            again = parse_machine_text(machine_to_text(m))
            assert again.n_states == m.n_states
            assert dict(again.entries) == dict(m.entries)

    def test_rejects_duplicate_keys(self):
        bad = "states 1\n0 - $ 0 -> H 0 S S . .\n0 - $ 0 -> 0 0 S S . .\n"
        with pytest.raises(MachineFormatError):
            parse_machine_text(bad)

    def test_rejects_bad_tokens_with_line_number(self):
        for bad in (
            "states 1\n0 - X 0 -> H 0 S S . .\n",
            "states 1\n0 - $ 0 -> H 0 Q S . .\n",
            "states 1\n0 - $ 0 -> H 0 S S 7 .\n",
            "states 1\n0 - $ z -> H 0 S S . .\n",
        ):
            with pytest.raises(MachineFormatError, match="line 2: bad entry"):
                parse_machine_text(bad)
        for bad in ("states\n", "states one\n", "states 1 2\n"):
            with pytest.raises(MachineFormatError, match="line 1: bad states line"):
                parse_machine_text(bad)

    def test_rejects_out_of_range_state(self):
        with pytest.raises(MachineFormatError):
            parse_machine_text("states 1\n1 - $ 0 -> H 0 S S . .\n")

    def test_model_allows_more_than_8_states_but_format_does_not(self):
        big = PrefixMachine(9, (((8, 2, 2, 0), (HALT, 0, 0, 0, None, False)),))
        with pytest.raises(MachineFormatError):
            encode_description(big)
        assert big.digest()   # text digest still works

    def test_digest_hashes_the_text_once(self, monkeypatch):
        import hashlib

        machines = [load_fixture(name) for name in fixture_names()]
        machines += [enumerate_machines(i) for i in range(1, 31)]
        texts = []
        to_text = prefix_vm.machine_to_text

        def counting_to_text(m):
            texts.append(1)
            return to_text(m)

        monkeypatch.setattr(prefix_vm, "machine_to_text", counting_to_text)
        for m in machines:
            fresh = PrefixMachine(m.n_states, m.entries, name=m.name, index=m.index)
            want = hashlib.sha256(to_text(m).encode()).hexdigest()[:16]
            assert m.digest() == want == m.digest()
            # the stored digest leaves equality, hashing and repr alone
            assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
            assert PrefixMachine(m.n_states, m.entries, name="other").digest() == want
        assert len(texts) == 2 * len(machines)   # each machine and its renamed twin once


def random_machine(seed, max_states=3, max_entries=14):
    import random

    from kolmo.prefix_vm import HALT, MARKER, NO_BIT

    r = random.Random(seed)
    n = r.randint(1, max_states)
    entries = []
    keys = set()
    for _ in range(r.randint(1, max_entries)):
        key = (r.randrange(n), r.choice([0, 1, NO_BIT]), r.choice([0, 1, MARKER]), r.randrange(2))
        if key in keys:
            continue
        keys.add(key)
        val = (
            r.choice([HALT] + list(range(n))),
            r.randrange(2),
            r.choice([-1, 0, 1]),
            r.choice([-1, 0, 1]),
            r.choice([None, 0, 1]),
            r.random() < 0.5,
        )
        entries.append((key, val))
    return PrefixMachine(n, tuple(entries))


class TestRandomMachineDifferential:
    """The shared-prefix search, the literal per-word runner, and the two
    dovetail schedulers must agree on arbitrary transition tables, not
    just on the shipped fixtures."""

    def test_tree_matches_direct_runs(self):
        for seed in range(150):
            m = random_machine(seed)
            for aux in ("", "10"):
                direct = accepted_by_direct_runs(m, aux, 6, 200)
                tree = {l.program: l.output for l in halting_programs(m, aux, 6, 200)}
                assert direct == tree, (seed, aux)
                assert is_prefix_free(tree)

    def test_schedulers_agree_on_random_machines(self):
        for seed in range(80):
            m = random_machine(seed)
            assert dovetail(m, "", 120) == dovetail(m, "", 120, "staged"), seed


def dict_staged_dovetail(m, aux, max_stage):
    """The staged scheduler as it was first written: at every stage k it
    visits positions 1 .. k - 1 through a dict and skips the ones that
    have ended.  It steps through ``prefix_vm._step`` looked up at call
    time, so a patched ``_step`` counts its steps too."""
    sims = {}
    events = []
    for k in range(2, max_stage + 1):
        for j in range(1, k):
            if j not in sims:
                sims[j] = (prefix_vm._Sim(), prefix_vm.index_word(j))
            if sims[j] is None:
                continue
            sim, word = sims[j]
            status = prefix_vm._step(m, sim, aux)
            if status == prefix_vm._STUCK:
                sims[j] = None
                continue
            if status == prefix_vm._READ:
                if sim.bits_read == len(word):
                    sims[j] = None
                    continue
                sim.pending = int(word[sim.bits_read])
                sim.bits_read += 1
            if sim.state == HALT:
                if sim.bits_read == len(word):
                    events.append(prefix_vm.HaltEvent(word, "".join(sim.out), k, m.index))
                sims[j] = None
    return events


# never reads and never halts: every program is still running at the end
SPINNER = parse_machine_text("states 1\n0 - * * -> 0 0 S S . .\n")
# reads one bit, then halts at once on a 1 and one step later on a 0, so
# the programs 0 and 1 (positions 2 and 3) both halt at stage 5
TIED = parse_machine_text(
    "states 2\n0 - * * -> 1 0 S S . r\n1 0 * * -> 1 0 S S . .\n1 1 * * -> H 0 S S 1 .\n1 - * * -> H 0 S S 0 .\n"
)


def staged_cases():
    """(machine, aux, max_stage) cases for the referee comparisons."""
    for name in fixture_names():
        for aux in ("", "1", "0110"):
            for stage in (1, 2, 3, 60, 300):
                yield load_fixture(name), aux, stage
    for i in list(range(1, 31)) + [117]:
        yield enumerate_machines(i), "", 120
    for seed in range(150):
        yield random_machine(seed), "", 120
    yield SPINNER, "", 300
    yield TIED, "", 60


class TestStagedScheduler:
    """The staged scheduler keeps a list of the running programs; the
    dict-based loop it replaced is its referee, event for event and step
    for step."""

    def test_matches_the_dict_referee(self):
        for m, aux, stage in staged_cases():
            assert dovetail(m, aux, stage, "staged") == dict_staged_dovetail(m, aux, stage), (m.label, aux, stage)

    def test_halt_at_the_last_stage_is_reported(self):
        # a program at position j halting after c steps is reported at
        # stage j + c exactly, and not one stage before
        m = load_fixture("ident")
        for event in dovetail(m, "", 300)[:8]:
            evs = dovetail(m, "", event.stage, "staged")
            assert evs == dict_staged_dovetail(m, "", event.stage)
            assert evs[-1] == event
            assert event not in dovetail(m, "", event.stage - 1, "staged")

    def test_halts_within_a_stage_come_in_position_order(self):
        evs = dovetail(TIED, "", 60, "staged")
        assert [(e.program, e.stage) for e in evs[:2]] == [("0", 5), ("1", 5)]

    def test_lockstep_with_the_referee(self, monkeypatch):
        calls = []
        real_step = prefix_vm._step

        def counting_step(*args):
            calls.append(1)
            return real_step(*args)

        monkeypatch.setattr(prefix_vm, "_step", counting_step)
        for m, aux, stage in staged_cases():
            calls.clear()
            want = dict_staged_dovetail(m, aux, stage)
            referee_calls = len(calls)
            calls.clear()
            assert dovetail(m, aux, stage, "staged") == want
            assert len(calls) == referee_calls, (m.label, aux, stage)
        calls.clear()
        dovetail(SPINNER, "", 300, "staged")
        assert len(calls) == 300 * 299 // 2   # one step per program per stage
