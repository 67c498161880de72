"""Lower approximations of a machine's output distribution under fair
coin flips: each accepted program of length n contributes 2**-n to the
mass of its output.

Tables are exact, grow monotonically with the stage and length budgets,
and can be persisted and extended between runs.  A table's total mass
never exceeds 1 because the accepted programs of a prefix machine form
a prefix-free set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import parse_word_text, word_text
from .complexity import KEstimate
from .exact_arith import Dyadic, ZERO
from .prefix_vm import PrefixMachine, dovetail

__all__ = [
    "AprioriTable",
    "KQRow",
    "ProvenanceError",
    "approx_apriori",
    "apriori_vs_k",
    "extend_table",
    "save_table",
    "load_table",
    "format_table",
    "parse_table",
]


class ProvenanceError(ValueError):
    """Metadata of two artifacts does not describe the same computation."""


@dataclass
class AprioriTable:
    """Accumulated halting mass per output, for one auxiliary word."""

    machine_digest: str
    machine_label: str
    aux: str
    stage: int
    length_bound: int
    entries: dict[str, Dyadic] = field(default_factory=dict)

    def mass(self, x: str) -> Dyadic:
        return self.entries.get(x, ZERO)

    def total(self) -> Dyadic:
        return sum(self.entries.values(), ZERO)


def approx_apriori(
    m: PrefixMachine,
    aux: str,
    max_stage: int,
    length_bound: int,
) -> AprioriTable:
    """Accumulate 2**-|p| per accepted program seen by the dovetailer,
    ignoring programs longer than the length bound."""
    if max_stage < 1 or length_bound < 1:
        raise ValueError("bounds must be positive")
    table = AprioriTable(
        machine_digest=m.digest(),
        machine_label=m.label,
        aux=aux,
        stage=max_stage,
        length_bound=length_bound,
    )
    for ev in dovetail(m, aux, max_stage):
        if len(ev.program) <= length_bound:
            mass = Dyadic.pow2(len(ev.program))
            table.entries[ev.output] = table.entries.get(ev.output, ZERO) + mass
    return table


@dataclass(frozen=True)
class KQRow:
    """One dominance check: the shortest-program mass against the table mass.

    ``gap`` is the floor of the base-2 log of table_mass / 2**-bits, a
    nonnegative integer exactly when dominance holds.
    """

    x: str
    k_bits: int
    q_mass: Dyadic
    gap: int
    ok: bool


def apriori_vs_k(table: AprioriTable, estimates) -> list[KQRow]:
    """Check 2**-K(x) <= Q(x) for every x present in both; exact.

    Estimates must come from the same machine and auxiliary word, with a
    length bound no larger than the table's; anything else is a
    provenance error, not a failed check.
    """
    rows = []
    for est in estimates:
        if not isinstance(est, KEstimate):
            raise TypeError("need KEstimate values")
        if est.machine_digest != table.machine_digest:
            raise ProvenanceError(
                f"estimate for machine {est.machine_digest} against table for {table.machine_digest}"
            )
        if est.aux != table.aux:
            raise ProvenanceError(f"estimate aux {est.aux!r} against table aux {table.aux!r}")
        if est.length_bound > table.length_bound:
            raise ProvenanceError("estimate searched longer programs than the table admits")
        q = table.mass(est.x)
        if q.is_zero:
            continue
        gap = q.floor_log2() + est.bits
        rows.append(KQRow(x=est.x, k_bits=est.bits, q_mass=q, gap=gap, ok=Dyadic.pow2(est.bits) <= q))
    return rows


# -- persistence --------------------------------------------------------

def format_table(table: AprioriTable) -> str:
    lines = [
        f"# machine\t{table.machine_digest}\t{table.machine_label}",
        f"# aux\t{word_text(table.aux)}",
        f"# stage\t{table.stage}",
        f"# length_bound\t{table.length_bound}",
    ]
    for x in sorted(table.entries, key=lambda w: (len(w), w)):
        lines.append(f"{word_text(x)}\t{table.entries[x]}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> AprioriTable:
    meta: dict[str, list[str]] = {}
    entries: dict[str, Dyadic] = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# "):
            fields = line[2:].split("\t")
            meta[fields[0]] = fields[1:]
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {n}: need x<TAB>mass")
        entries[parse_word_text(fields[0])] = Dyadic.parse(fields[1])

    def first(key: str) -> str:
        if not meta.get(key):
            raise ProvenanceError(f"table header missing {key!r}" + (" value" if key in meta else ""))
        return meta[key][0]

    def integer(key: str) -> int:
        try:
            return int(first(key))
        except ValueError:
            raise ProvenanceError(f"table header {key!r} needs an integer, got {first(key)!r}") from None

    return AprioriTable(
        machine_digest=first("machine"),
        machine_label=meta["machine"][1] if len(meta["machine"]) > 1 else "",
        aux=parse_word_text(first("aux")),
        stage=integer("stage"),
        length_bound=integer("length_bound"),
        entries=entries,
    )


def save_table(table: AprioriTable, path) -> None:
    with open(path, "w") as f:
        f.write(format_table(table))


def load_table(path) -> AprioriTable:
    with open(path) as f:
        return parse_table(f.read())


def extend_table(
    table: AprioriTable, m: PrefixMachine, max_stage: int, length_bound: int | None = None
) -> AprioriTable:
    """Recompute at a larger stage budget, checking that the stored table
    is a pointwise lower bound of the new one (monotone refinement)."""
    if m.digest() != table.machine_digest:
        raise ProvenanceError("stored table belongs to a different machine")
    length_bound = length_bound if length_bound is not None else table.length_bound
    if max_stage < table.stage or length_bound < table.length_bound:
        raise ValueError("budgets can only grow")
    fresh = approx_apriori(m, table.aux, max_stage, length_bound)
    for x, old in table.entries.items():
        if not old <= fresh.mass(x):
            raise ProvenanceError(f"stored mass for {x!r} not refined by the new run")
    return fresh
