"""Program-length estimates checked against an independent brute force.

The oracle runs every word directly (no prefix sharing, no search
shortcuts) and takes the minimum by hand.
"""

from pathlib import Path

from kolmo.codes import bar_length, kraft_sum
from kolmo.complexity import approx_k, approx_k_universal, soi_report
from kolmo.exact_arith import ONE
from kolmo.fixtures import load_fixture
from kolmo.prefix_vm import Outcome, enumerate_machines, run

GOLDEN = Path(__file__).parent / "golden"


def all_words(max_len):
    yield ""
    for n in range(1, max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n)


def oracle_k(m, x, y, length_bound, step_bound):
    """Brute force: direct run on every word, min by (length, lex)."""
    for w in sorted(all_words(length_bound), key=lambda w: (len(w), w)):
        r = run(m, w, y, step_bound)
        if r.kind is Outcome.HALTED and r.output == x:
            return len(w), w
    return None


class TestApproxK:
    def test_halt_now(self):
        est = approx_k(load_fixture("halt_now"), "", "", 4, 50)
        assert est.bits == 0 and est.witness == ""

    def test_copy2(self):
        est = approx_k(load_fixture("copy2"), "10", "", 4, 50)
        assert est.bits == 2 and est.witness == "10"

    def test_absent_output_is_none(self):
        assert approx_k(load_fixture("copy2"), "111", "", 4, 50) is None

    def test_matches_oracle(self):
        for name in ("halt_now", "echo1", "copy2", "twoway", "ident"):
            m = load_fixture(name)
            for x in list(all_words(2)) + ["000"]:
                got = approx_k(m, x, "", 6, 200)
                want = oracle_k(m, x, "", 6, 200)
                if want is None:
                    assert got is None, (name, x)
                else:
                    assert (got.bits, got.witness) == want, (name, x)

    def test_unconditional_is_empty_aux(self):
        m = load_fixture("ident")
        est = approx_k(m, "10", "", 7, 200)
        assert est.aux == "" and est.bits == 5   # bar("10") = "11010"

    def test_monotone_in_bounds(self):
        m = load_fixture("twoway")
        base = approx_k(m, "1", "", 3, 200)
        wider = approx_k(m, "1", "", 6, 200)
        assert base.bits >= wider.bits == 2

    def test_monotone_in_step_bound(self):
        m = load_fixture("ident")
        # the 2-bit word needs about a dozen steps; starved searches find
        # nothing or something no shorter
        for lean, rich in ((3, 30), (8, 80), (12, 400)):
            a = approx_k(m, "10", "", 7, lean)
            b = approx_k(m, "10", "", 7, rich)
            assert b is not None
            if a is not None:
                assert b.bits <= a.bits

    def test_witness_replays(self):
        m = load_fixture("ident")
        for x in all_words(2):
            est = approx_k(m, x, "", 7, 200)
            r = run(m, est.witness, "", est.step_bound)
            assert r.kind is Outcome.HALTED and r.output == x

    def test_kraft_over_witnesses(self):
        m = load_fixture("ident")
        ests = [approx_k(m, x, "", 9, 400) for x in all_words(3)]
        assert kraft_sum(e.witness for e in ests if e) <= ONE

    def test_witness_is_lex_first_minimal(self):
        # echo-like machine where "0" and "1" both halt: for output "0"
        # the only witness is "0" itself
        est = approx_k(load_fixture("echo1"), "0", "", 3, 50)
        assert est.witness == "0"


class TestUniversalEstimates:
    def test_invariance_bound(self):
        # simulating machine i through the universal interpreter costs
        # exactly the bar code of i on top
        for i in range(9, 21):
            m = enumerate_machines(i)
            for x in ("", "0", "1"):
                est_i = approx_k(m, x, "", 4, 60)
                if est_i is None:
                    continue
                est_u = approx_k_universal(x, "", bar_length(i) + est_i.bits, 60)
                assert est_u is not None
                assert est_u.bits <= est_i.bits + bar_length(i)

    def test_witness_parses_and_replays(self):
        est = approx_k_universal("", "", 7, 60)
        assert est is not None
        from kolmo.prefix_vm import universal_run

        r = universal_run(est.witness, "", 60)
        assert r.kind is Outcome.HALTED and r.output == ""


class TestSoi:
    def test_empty_pair(self):
        rep = soi_report(load_fixture("ident"), "", "", 9, 400)
        assert rep.complete
        assert rep.k_pair >= 0

    def test_golden_rows(self):
        m = load_fixture("ident")
        rows = [soi_report(m, x, y, 13, 900) for x, y in [("", ""), ("1", ""), ("1", "0"), ("10", "1")]]
        got = "\n".join(
            f"{r.x or '-'}\t{r.y or '-'}\t{r.k_pair}\t{r.k_x}\t{r.k_y_given_xstar}\t{r.residual}"
            for r in rows
        )
        golden = GOLDEN / "soi_ident.tsv"
        assert got == golden.read_text().rstrip("\n")

    def test_incomplete_row_flagged(self):
        rep = soi_report(load_fixture("copy2"), "10", "1", 5, 100)
        assert not rep.complete and rep.residual is None

    def test_bounds_never_increase_estimates(self):
        m = load_fixture("ident")
        small = soi_report(m, "1", "", 9, 400)
        big = soi_report(m, "1", "", 13, 900)
        assert big.k_pair <= small.k_pair
        assert big.k_x <= small.k_x
