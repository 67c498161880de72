import pytest

from kolmo.apriori import (
    ProvenanceError,
    approx_apriori,
    apriori_vs_k,
    extend_table,
    format_table,
    load_table,
    parse_table,
    save_table,
)
from kolmo.complexity import approx_k
from kolmo.exact_arith import Dyadic, ONE
from kolmo.fixtures import load_fixture


def dy(n, e=0):
    return Dyadic(n, e)


class TestHandDerivedTables:
    def test_halt_now(self):
        t = approx_apriori(load_fixture("halt_now"), "", 50, 6)
        assert t.entries == {"": ONE}

    def test_echo1(self):
        t = approx_apriori(load_fixture("echo1"), "", 50, 6)
        assert t.entries == {"0": dy(1, 1), "1": dy(1, 1)}
        assert t.total() == ONE

    def test_copy2(self):
        t = approx_apriori(load_fixture("copy2"), "", 50, 6)
        assert t.entries == {w: dy(1, 2) for w in ("00", "01", "10", "11")}
        assert t.total() == ONE

    def test_twoway_sums_two_programs(self):
        t = approx_apriori(load_fixture("twoway"), "", 50, 6)
        assert t.entries == {"1": dy(3, 3)}   # 1/4 + 1/8

    def test_ident_masses_follow_code_length(self):
        t = approx_apriori(load_fixture("ident"), "", 200, 7)
        assert t.mass("") == dy(1, 1)
        assert t.mass("0") == t.mass("1") == dy(1, 3)
        assert t.mass("00") == dy(1, 5)
        assert t.total() <= ONE


class TestMonotonicity:
    def test_monotone_in_stage(self):
        m = load_fixture("ident")
        prev = approx_apriori(m, "", 5, 8)
        for stage in (10, 20, 40, 80):
            cur = approx_apriori(m, "", stage, 8)
            for x, v in prev.entries.items():
                assert v <= cur.mass(x)
            prev = cur

    def test_monotone_in_length_bound(self):
        m = load_fixture("ident")
        small = approx_apriori(m, "", 100, 3)
        big = approx_apriori(m, "", 100, 7)
        for x, v in small.entries.items():
            assert v <= big.mass(x)

    def test_kraft_always(self):
        for name in ("halt_now", "echo1", "copy2", "twoway", "ident"):
            m = load_fixture(name)
            for stage in (3, 7, 30, 120):
                assert approx_apriori(m, "", stage, 9).total() <= ONE


class TestVsK:
    def test_copy2_equality(self):
        m = load_fixture("copy2")
        t = approx_apriori(m, "", 60, 6)
        ests = [approx_k(m, x, "", 6, 50) for x in t.entries]
        rows = apriori_vs_k(t, ests)
        assert len(rows) == 4
        for row in rows:
            assert row.ok and row.gap == 0
            assert Dyadic.pow2(row.k_bits) == row.q_mass

    def test_twoway_strict_dominance(self):
        m = load_fixture("twoway")
        t = approx_apriori(m, "", 60, 6)
        (row,) = apriori_vs_k(t, [approx_k(m, "1", "", 6, 50)])
        assert row.ok and row.q_mass == dy(3, 3) and row.k_bits == 2
        assert row.gap == 0   # floor(log2 3/8) + 2

    def test_single_program_equality(self):
        m = load_fixture("halt_now")
        t = approx_apriori(m, "", 10, 4)
        (row,) = apriori_vs_k(t, [approx_k(m, "", "", 4, 10)])
        assert row.ok and row.gap == 0

    def test_provenance_mismatch(self):
        t = approx_apriori(load_fixture("copy2"), "", 60, 6)
        est = approx_k(load_fixture("echo1"), "0", "", 4, 50)
        with pytest.raises(ProvenanceError):
            apriori_vs_k(t, [est])

    def test_aux_mismatch(self):
        m = load_fixture("copy2")
        t = approx_apriori(m, "", 60, 6)
        est = approx_k(m, "10", "1", 6, 50)
        with pytest.raises(ProvenanceError):
            apriori_vs_k(t, [est])


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = approx_apriori(load_fixture("ident"), "1", 120, 6)
        p = tmp_path / "table.tsv"
        save_table(t, p)
        again = load_table(p)
        assert again == t

    def test_format_is_deterministic_and_exact(self):
        t = approx_apriori(load_fixture("twoway"), "", 60, 6)
        text = format_table(t)
        assert "1\t3/2^3" in text
        assert format_table(parse_table(text)) == text

    def test_extend_grows_budget(self):
        m = load_fixture("ident")
        t = approx_apriori(m, "", 10, 6)
        bigger = extend_table(t, m, 100)
        assert bigger.stage == 100
        for x, v in t.entries.items():
            assert v <= bigger.mass(x)

    def test_extend_rejects_wrong_machine(self):
        t = approx_apriori(load_fixture("ident"), "", 10, 6)
        with pytest.raises(ProvenanceError):
            extend_table(t, load_fixture("copy2"), 100)

    def test_extend_rejects_shrinking(self):
        m = load_fixture("ident")
        t = approx_apriori(m, "", 10, 6)
        with pytest.raises(ValueError):
            extend_table(t, m, 5)
