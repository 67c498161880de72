import pytest
from hypothesis import given, strategies as st

from kolmo.codes import (
    MalformedStreamError,
    bar_decode,
    bar_encode,
    bar_length,
    cantor_pair,
    cantor_unpair,
    index_word,
    is_prefix_free,
    kraft_sum,
    nat_to_string,
    pair3,
    pair_strings,
    std_decode,
    std_encode,
    string_to_nat,
    unpair_strings,
    word_index,
    word_text,
    parse_word_text,
)
from kolmo.exact_arith import Dyadic, ONE

words = st.text(alphabet="01", max_size=24)


def test_bijection_table():
    table = [(0, ""), (1, "0"), (2, "1"), (3, "00"), (4, "01"), (5, "10"), (6, "11"), (7, "000")]
    for n, s in table:
        assert nat_to_string(n) == s
        assert string_to_nat(s) == n


def test_bijection_roundtrip():
    for n in range((1 << 16) + 1):
        assert string_to_nat(nat_to_string(n)) == n


def test_bijection_order_is_length_lex():
    ws = [nat_to_string(n) for n in range(200)]
    assert ws == sorted(ws, key=lambda w: (len(w), w))
    assert word_index("") == 1 and index_word(4) == "00"


def test_word_text_roundtrip():
    assert word_text("") == "-" and parse_word_text("-") == ""
    for w in ("0", "1", "0110"):
        assert word_text(w) == w and parse_word_text(word_text(w)) == w


class TestBarCode:
    def test_empty(self):
        assert bar_encode("") == "0"

    def test_example(self):
        assert bar_encode("101") == "1110101"
        assert len(bar_encode("101")) == 2 * 3 + 1

    def test_decode_with_junk(self):
        assert bar_decode("1110101" + "0011") == ("101", 7)

    def test_malformed(self):
        with pytest.raises(MalformedStreamError):
            bar_decode("111")
        with pytest.raises(MalformedStreamError):
            bar_decode("1101")   # run of 2 needs 2 payload bits, only 1 left

    @given(words, words)
    def test_one_pass_roundtrip(self, x, junk):
        w, c = bar_decode(bar_encode(x) + junk)
        assert (w, c) == (x, 2 * len(x) + 1)

    def test_bar_length_of_index(self):
        assert bar_length(0) == 1
        assert bar_length(9) == 2 * len(nat_to_string(9)) + 1


class TestStdCode:
    def test_empty(self):
        assert std_encode("") == "0"

    def test_example(self):
        assert std_encode("101") == "11000" + "101"

    def test_length_formula(self):
        for n in range(65):
            x = "1" * n
            assert len(std_encode(x)) == len(x) + 2 * len(nat_to_string(len(x))) + 1

    @given(words, words)
    def test_self_delimiting(self, x, junk):
        w, c = std_decode(std_encode(x) + junk)
        assert (w, c) == (x, len(std_encode(x)))

    def test_prefix_free_over_short_words(self):
        ws = {std_encode(nat_to_string(n)) for n in range(64)}
        assert is_prefix_free(ws)


class TestPairing:
    def test_examples(self):
        assert pair_strings("", "") == "0"
        assert pair_strings("101", "0") == "110001010"

    def test_roundtrip_all_words_up_to_8_bits(self):
        words8 = [nat_to_string(n) for n in range((1 << 9) - 1)]   # every |w| <= 8
        for x in words8:
            for y in words8:
                assert unpair_strings(pair_strings(x, y)) == (x, y)

    def test_length_is_sum_plus_header(self):
        x, y = "0110", "111"
        assert len(pair_strings(x, y)) == len(std_encode(x)) + len(y)

    def test_nested(self):
        p = pair3("1", "0", "11")
        x, rest = unpair_strings(p)
        assert x == "1" and unpair_strings(rest) == ("0", "11")

    def test_malformed(self):
        with pytest.raises(MalformedStreamError):
            unpair_strings("1")


class TestCantor:
    def test_examples(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 2) == 8

    def test_roundtrip(self):
        for i in range(257):
            for j in range(257):
                assert cantor_unpair(cantor_pair(i, j)) == (i, j)

    def test_surjective_on_initial_segment(self):
        seen = {cantor_pair(*cantor_unpair(n)) for n in range(10_000)}
        assert seen == set(range(10_000))


class TestKraft:
    def test_complete_code(self):
        assert is_prefix_free({"0", "10", "11"})
        assert kraft_sum({"0", "10", "11"}) == ONE

    def test_not_prefix_free(self):
        assert not is_prefix_free({"0", "01"})

    def test_bar_codewords(self):
        ws = {bar_encode(nat_to_string(n)) for n in range(15)}   # all |x| <= 3
        assert len(ws) == 15
        assert is_prefix_free(ws)
        assert kraft_sum(ws) == Dyadic(15, 4)

    @given(st.sets(words, max_size=40))
    def test_prefix_free_implies_kraft(self, ws):
        if is_prefix_free(ws):
            assert kraft_sum(ws) <= ONE
