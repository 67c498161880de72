"""Interval coding: from masses to prefix codewords with pinned constants.

Two constructions live here.

* ``shannon_fano``: cut an interval of length p(x) for each symbol from
  the left end of [0, 1), in list order, and use the word of the
  leftmost largest binary subinterval as the codeword.  Because that
  subinterval is longer than a quarter of the allocation, codewords obey
  |e(x)| <= ceil(log2 1/p(x)) + 2 exactly.

* ``build_codebook``: the same chopping applied to a *growing* mass
  estimate.  ``psi_discretize`` reduces the estimate stream to its first
  crossings of powers of two, read off a sweep over (symbol, stage)
  points in order of their sum; a staircase stream can cross only where
  a stair starts, so it is sampled there and nowhere else.  Each
  crossing 2**-k claims an interval of length 2**-k-1.  The final
  crossing of a symbol is above half of its total estimate, and a
  power-of-two-length interval always contains a binary interval of
  half its length, so the shortest codeword p of each symbol satisfies
  2**-|p| >= mass/8, i.e. |p| <= ceil(log2 1/mass) + 3: one bit more
  than the static construction, the price of coding a quantity only
  approximable from below.

Interval allocation is per conditioning word: every auxiliary word gets
its own unit interval, so codewords are prefix-free for each fixed
condition, which is what a decoding machine reading one program with
the condition on its auxiliary tape needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import repeat

from .apriori import approx_apriori
from .codes import index_word, parse_word_text, word_index, word_text
from .complexity import approx_k
from .exact_arith import Dyadic, Interval, ONE, ZERO, largest_binary_subinterval
from .prefix_vm import HALT, NO_BIT, PrefixMachine, dovetail
from .semimeasures import ConditionalSemimeasure, MixtureSpec, MonotoneApproximator, mixture, normalize_stages

__all__ = [
    "AllocationOverflowError",
    "AuxMismatchError",
    "PsiEvent",
    "SimpleCodeBook",
    "CodeBook",
    "shannon_fano",
    "psi_discretize",
    "build_codebook",
    "machine_mass_stream",
    "mixture_mass_stream",
    "decode",
    "codebook_to_machine",
    "GapRow",
    "coding_gap_report_machine",
    "coding_gap_report_mixture",
    "format_codebook",
    "parse_codebook",
]


class AllocationOverflowError(ValueError):
    """Cumulative interval allocation left [0, 1): the masses behind the
    stream sum past 1 for some condition."""


class AuxMismatchError(ValueError):
    """Decode asked with a different condition than the book was built for."""


@dataclass(frozen=True)
class SimpleCodeBook:
    """Static construction: one entry per symbol, in allocation order."""

    entries: tuple[tuple[str, str, Interval], ...]   # (symbol, codeword, interval)

    def codeword(self, symbol: str) -> str | None:
        for sym, word, _ in self.entries:
            if sym == symbol:
                return word
        return None


def shannon_fano(masses) -> SimpleCodeBook:
    """Allocate [0,1) left to right in list order; masses must be positive
    dyadics with an exact sum of at most 1 and distinct symbols."""
    masses = list(masses)
    total = sum((p for _, p in masses), ZERO)
    if total > ONE:
        raise AllocationOverflowError(f"masses sum to {total} > 1")
    if len({sym for sym, _ in masses}) != len(masses):
        raise ValueError("duplicate symbols")
    entries = []
    cursor = ZERO
    for sym, p in masses:
        if not isinstance(p, Dyadic) or p.is_zero:
            raise ValueError(f"mass for {sym!r} must be a positive dyadic")
        iv = Interval(cursor, cursor + p)
        word = largest_binary_subinterval(iv).word
        entries.append((sym, word, iv))
        cursor = iv.hi
    return SimpleCodeBook(tuple(entries))


@dataclass(frozen=True)
class PsiEvent:
    """First crossing of a power-of-two threshold by one estimate.

    ``mass`` is 2**-k where the estimate just entered [2**-k, 2**-k+1);
    per (x, y) the emitted masses are strictly increasing, and their sum
    stays below twice the estimate's supremum.
    """

    x: str
    y: str
    t: int
    mass: Dyadic


def psi_discretize(phi: MonotoneApproximator, y_index: int, max_stage: int, max_events: int | None = None):
    """Yield the threshold-crossing events of condition ``y_index``.

    The sweep visits (x, t) with x + t <= ``max_stage`` by x + t, then x;
    a point emits 2**-k when its value lies in [2**-k, 2**-k+1) and the
    last sample of x was below 2**-k, and a value above 1 raises.  A
    staircase stream is sampled only at its stair stages (stages <= 0
    count as 1): between them its value repeats, which can neither emit
    nor raise.  Other streams are sampled at every point.
    """
    stairs = phi.stairs
    if stairs is None:
        points = ((x, s - x) for s in range(2, max_stage + 1) for x in range(1, s))
    else:
        points = sorted(
            {(x, max(k, 1)) for x in range(1, max_stage) for k in stairs(x, y_index)[0] if k <= max_stage - x},
            key=lambda point: (point[0] + point[1], point[0]),
        )
    emitted = 0
    last_sample: dict[int, Dyadic] = {}
    for x, t in points:
        if max_events is not None and emitted >= max_events:
            return
        v = phi(x, y_index, t)
        if v.is_zero:
            continue
        if v > ONE:
            raise ValueError(f"estimate {v} above 1 at (x={x}, y={y_index}, t={t})")
        threshold = Dyadic.pow2(v.ceil_log2_reciprocal())   # the bracket floor below v
        if last_sample.get(x, ZERO) < threshold:
            yield PsiEvent(index_word(x), index_word(y_index), t, threshold)
            emitted += 1
        last_sample[x] = v   # phi rejects a falling value, so this is the supremum


@dataclass
class CodeBook:
    """Per-condition prefix codebook built from threshold events.

    Later events of a symbol claim larger intervals and hence shorter
    codewords; ``codeword(x)`` returns the shortest one.
    """

    aux: str
    entries: list[tuple[str, str, Interval, PsiEvent]] = field(default_factory=list)
    layout_cursor: Dyadic = ZERO
    provenance: str = ""

    def codeword(self, x: str) -> str | None:
        best = None
        for sym, word, _, _ in self.entries:
            if sym == x and (best is None or len(word) < len(best)):
                best = word
        return best

    def symbols(self) -> list[str]:
        return sorted({sym for sym, _, _, _ in self.entries}, key=lambda w: (len(w), w))


def build_codebook(
    phi: MonotoneApproximator,
    y: str,
    max_stage: int,
    max_events: int | None = None,
    provenance: str = "",
) -> CodeBook:
    """Chop intervals of length event-mass/2 from [0, 1) in event order
    for condition ``y``; codewords are the leftmost largest binary
    subinterval words."""
    book = CodeBook(aux=y, provenance=provenance or f"per-condition:{max_stage}:{max_events}")
    for ev in psi_discretize(phi, word_index(y), max_stage, max_events):
        length = ev.mass.halve()
        hi = book.layout_cursor + length
        if hi > ONE:
            raise AllocationOverflowError(
                f"allocation for condition {y!r} passed 1 at event {ev}"
            )
        iv = Interval(book.layout_cursor, hi)
        word = largest_binary_subinterval(iv).word
        book.entries.append((ev.x, word, iv, ev))
        book.layout_cursor = hi
    return book


def decode(book: CodeBook, p: str, y: str) -> str | None:
    """The symbol whose designated codeword is exactly ``p``; None models
    divergence of the decoding machine."""
    if y != book.aux:
        raise AuxMismatchError(f"book built for {book.aux!r}, asked for {y!r}")
    for sym, word, _, _ in book.entries:
        if word == p:
            return sym
    return None


def codebook_to_machine(book: CodeBook, name: str = "") -> PrefixMachine:
    """Compile the decode mapping onto the machine model: reading a
    designated codeword with the right condition outputs its symbol and
    halts; any other input diverges.  The auxiliary tape is ignored --
    per-condition books are compiled per machine."""
    by_word = {}
    for sym, word, _, _ in book.entries:
        by_word[word] = sym
    trie_nodes = {""}
    for word in by_word:
        for cut in range(1, len(word)):
            trie_nodes.add(word[:cut])
    node_state = {u: i for i, u in enumerate(sorted(trie_nodes, key=lambda w: (len(w), w)))}
    entries = []
    next_state = len(node_state)

    def all_keys(state, pending):
        for aux in (0, 1, 2):
            for work in (0, 1):
                yield (state, pending, aux, work)

    def emit_chain(sym):
        """States that output sym bit by bit, then halt; returns the entry
        action for the first bit."""
        nonlocal next_state
        if not sym:
            return (HALT, 0, 0, 0, None, False)
        first_out = int(sym[0])
        # build the tail back to front
        chain = []
        for bit in sym[:0:-1]:
            chain.append((next_state, int(bit)))
            next_state += 1
        target = HALT
        for st, bit in chain:
            for key in all_keys(st, NO_BIT):
                entries.append((key, (target, 0, 0, 0, bit, False)))
            target = st
        return (target, 0, 0, 0, first_out, False)

    if "" in by_word:
        # the empty codeword: halt immediately, emitting the symbol
        action = emit_chain(by_word[""])
        for key in all_keys(node_state[""], NO_BIT):
            entries.append((key, action))
    else:
        for u, st in node_state.items():
            # await the next codeword bit at node u
            for key in all_keys(st, NO_BIT):
                entries.append((key, (st, 0, 0, 0, None, True)))
        for u, st in node_state.items():
            for bit in (0, 1):
                child = u + str(bit)
                if child in by_word:
                    action = emit_chain(by_word[child])
                    for key in all_keys(st, bit):
                        entries.append((key, action))
                elif child in node_state:
                    tgt = node_state[child]
                    for key in all_keys(st, bit):
                        entries.append((key, (tgt, 0, 0, 0, None, True)))
                # missing children stay stuck: divergence
    machine = PrefixMachine(max(next_state, 1), tuple(entries), name=name or "decoder")
    return machine


# -- mass streams -------------------------------------------------------

def machine_mass_stream(m: PrefixMachine, max_stage: int, length_bound: int) -> MonotoneApproximator:
    """The machine's accumulated output mass as a stage function: value at
    (x, y, t) is the mass of word(x) under condition word(y) after
    dovetail stage t (no event comes after stage ``max_stage``)."""
    @cache
    def staircase(y_index: int) -> dict[int, tuple[list[int], list[Dyadic]]]:
        """x index -> (event stages, accumulated masses) under condition y."""
        stairs: dict[int, tuple[list[int], list[Dyadic]]] = {}
        for ev in dovetail(m, index_word(y_index), max_stage):
            if len(ev.program) <= length_bound:
                stages, values = stairs.setdefault(word_index(ev.output), ([], []))
                stages.append(ev.stage)
                values.append((values[-1] if values else ZERO) + Dyadic.pow2(len(ev.program)))
        return stairs

    return MonotoneApproximator.from_stairs(lambda x, y: staircase(y).get(x, ((), ())), name=f"mass:{m.label}")


def mixture_mass_stream(spec: MixtureSpec, max_stage: int) -> MonotoneApproximator:
    """Stage function of a mixture: the mixture table cut off at stage t.
    One clamping pass per stream component gives its stage-t tables;
    table components enter every stage as they are."""
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    MixtureSpec(spec.components)   # re-validate, as mixture does
    passes = [
        repeat(comp) if isinstance(comp, ConditionalSemimeasure) else normalize_stages(comp, max_stage)
        for _, comp in spec.components
    ]
    tables = {}
    for t in range(1, max_stage + 1):
        stage_t = tuple((e, next(tables_of)) for (e, _), tables_of in zip(spec.components, passes))
        tables[t] = mixture(MixtureSpec(stage_t), t)

    def fn(x: int, y: int, t: int) -> Dyadic:
        return tables[min(t, max_stage)].mass(x, y)

    return MonotoneApproximator(fn, name="mixture")


# -- gap report ----------------------------------------------------------

@dataclass(frozen=True)
class GapRow:
    """Per-symbol comparison of three cost measures, all exact integers:
    the ceilinged log of the accumulated mass, the shortest-program
    length found, and the codebook word length."""

    x: str
    q_mass: Dyadic | None
    neg_log_q_ceil: int | None
    k_bits: int | None
    m_sup: Dyadic
    neg_log_m_ceil: int
    code_len: int | None
    k_vs_q_ok: bool | None
    code_bound_ok: bool | None


def _rows_from_book(book: CodeBook, sup_of: dict[str, Dyadic], k_of, q_of) -> list[GapRow]:
    rows = []
    for x in sorted(sup_of, key=lambda w: (len(w), w)):
        sup = sup_of[x]
        word = book.codeword(x)
        k_bits = k_of(x)
        q = q_of(x)
        neg_log_m = sup.ceil_log2_reciprocal()
        rows.append(
            GapRow(
                x=x,
                q_mass=q,
                neg_log_q_ceil=q.ceil_log2_reciprocal() if q else None,
                k_bits=k_bits,
                m_sup=sup,
                neg_log_m_ceil=neg_log_m,
                code_len=len(word) if word is not None else None,
                k_vs_q_ok=(Dyadic.pow2(k_bits) <= q) if (k_bits is not None and q) else None,
                code_bound_ok=(len(word) <= neg_log_m + 3) if word is not None else None,
            )
        )
    return rows


def coding_gap_report_machine(
    m: PrefixMachine, y: str, max_stage: int, length_bound: int, step_bound: int
) -> list[GapRow]:
    """For every output observed under condition ``y``: accumulated mass,
    shortest-program length, and the codebook length for the machine's
    own mass stream.  Exact one-sided checks ride along; the two-sided
    story is left as the visible gaps."""
    table = approx_apriori(m, y, max_stage, length_bound)
    phi = machine_mass_stream(m, max_stage, length_bound)
    max_x = max((word_index(x) for x in table.entries), default=1)
    book = build_codebook(phi, y, max_stage + max_x + 1)
    sup_of = dict(table.entries)
    ests = {x: approx_k(m, x, y, length_bound, step_bound) for x in sup_of}
    return _rows_from_book(
        book,
        sup_of,
        k_of=lambda x: ests[x].bits if ests[x] else None,
        q_of=lambda x: table.mass(x),
    )


def coding_gap_report_mixture(spec: MixtureSpec, y: str, max_stage: int) -> list[GapRow]:
    """Mixture variant: no machine to search, so the program-length and
    mass columns stay empty and the codebook bound is the whole story."""
    table = mixture(spec, max_stage)
    phi = mixture_mass_stream(spec, max_stage)
    y_index = word_index(y)
    sup_of = {
        index_word(x): v for (x, yy), v in table.values.items() if yy == y_index and not v.is_zero
    }
    max_x = max((word_index(x) for x in sup_of), default=1)
    book = build_codebook(phi, y, max_stage + max_x + 1)
    return _rows_from_book(book, sup_of, k_of=lambda x: None, q_of=lambda x: None)


# -- persistence ---------------------------------------------------------

def format_codebook(book: CodeBook) -> str:
    lines = [
        f"# aux\t{word_text(book.aux)}",
        f"# provenance\t{book.provenance}",
        f"# cursor\t{book.layout_cursor}",
    ]
    for sym, word, iv, ev in book.entries:
        lines.append(f"{word_text(sym)}\t{word_text(word)}\t{iv.lo}\t{iv.hi}")
    return "\n".join(lines) + "\n"


def parse_codebook(text: str) -> CodeBook:
    aux = ""
    provenance = ""
    cursor = ZERO
    entries = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# "):
            key, _, val = line[2:].partition("\t")
            if key == "aux":
                aux = parse_word_text(val)
            elif key == "provenance":
                provenance = val
            elif key == "cursor":
                cursor = Dyadic.parse(val)
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"line {n}: need symbol<TAB>codeword<TAB>lo<TAB>hi")
        sym, word, lo, hi = fields
        iv = Interval(Dyadic.parse(lo), Dyadic.parse(hi))
        mass = iv.length + iv.length
        entries.append((parse_word_text(sym), parse_word_text(word), iv, PsiEvent(parse_word_text(sym), aux, 0, mass)))
    return CodeBook(aux=aux, entries=entries, layout_cursor=cursor, provenance=provenance)
