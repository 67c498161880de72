"""Monotone approximator streams and the clamping construction that turns
any of them into a conditional semimeasure.

The clamping loop runs in stages.  At stage k it samples the
approximator on the square (x, y) in [1..k]^2 and accepts the whole
sample only if every column sums to at most 1; otherwise the table
keeps its previous values.  Column sums of a monotone stream never
decrease, so a single violation freezes the table for good: values
written before the first violation are final.  Streams that already
behave like conditional semimeasures pass through unchanged.  A
staircase stream is sampled only at entry and stair stages, where its
value can change, with its column sums kept running; the sampled grid
serves every other stream.

A mixture combines clamped tables with weights 2**-e_j whose exponents
come from a prefix-free code, so the weight sum is at most 1 and the
mixture dominates each component by exactly its weight.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .codes import nat_to_string
from .exact_arith import Dyadic, ONE, ZERO

__all__ = [
    "DivergeSignal",
    "MonotonicityError",
    "WeightError",
    "MonotoneApproximator",
    "ConditionalSemimeasure",
    "MixtureSpec",
    "normalize",
    "normalize_stages",
    "mixture",
    "check_domination",
    "bar_weight_exponents",
    "load_approximator_csv",
]


class DivergeSignal(Exception):
    """Raised by an approximator whose value at this point never appears.

    Well-formed streams that diverge at (x, y, k) also diverge at every
    later k for the same (x, y); the clamping loop then freezes forever,
    matching the semantics of a sample that never finishes.
    """


class MonotonicityError(ValueError):
    """An approximator decreased in k; carries the offending (x, y, k)."""

    def __init__(self, x: int, y: int, k: int, msg: str = ""):
        super().__init__(msg or f"approximator not monotone at (x={x}, y={y}, k={k})")
        self.point = (x, y, k)


class WeightError(ValueError):
    pass


class MonotoneApproximator:
    """Total stage function (x, y, k) -> Dyadic, x, y, k >= 1.

    Values are validated at query time: a value smaller than one
    recorded at a lower stage (or larger than one at a higher stage)
    raises MonotonicityError naming the point.  Each (x, y) keeps its
    accepted samples as a staircase, stages sorted with their values in
    a parallel list, and that history is also the memo: a repeated point
    is answered from it without calling ``fn`` again.  Every recorded
    value passed the check, so the recorded values are monotone too: a
    new point is checked against its two sorted neighbours only, in
    O(log n) for n recorded stages.
    """

    def __init__(self, fn, name: str = "phi"):
        self._fn = fn
        self.name = name
        self.stairs = None   # set by from_stairs
        # (x, y) -> (sorted stages, their values), parallel lists
        self._history: dict[tuple[int, int], tuple[list[int], list[Dyadic]]] = {}

    def __call__(self, x: int, y: int, k: int) -> Dyadic:
        if min(x, y, k) < 1:
            raise ValueError("arguments start at 1")
        stair = self._history.get((x, y))
        stages, values = stair if stair is not None else ([], [])
        i = bisect_left(stages, k)
        if i < len(stages) and stages[i] == k:
            return values[i]
        value = self._fn(x, y, k)
        if not isinstance(value, Dyadic):
            raise TypeError(f"{self.name} returned {value!r}, need a Dyadic")
        if (i > 0 and values[i - 1] > value) or (i < len(stages) and values[i] < value):
            raise MonotonicityError(x, y, k)
        if stair is None:
            self._history[(x, y)] = (stages, values)
        stages.insert(i, k)
        values.insert(i, value)
        return value

    @classmethod
    def from_stairs(cls, stairs, name: str = "phi") -> "MonotoneApproximator":
        """Staircase stream keyed by condition: ``stairs(y)`` maps each x
        to (sorted stages, their values), read by ``_stair_value``; an
        absent x has no stairs and reads zero.  The stream keeps
        ``stairs``, so a reader can sample it only where it can change
        and read a condition's support and suprema off it."""
        phi = cls(lambda x, y, k: _stair_value(stairs(y).get(x, _NO_STAIR), k), name=name)
        phi.stairs = stairs
        return phi

    @classmethod
    def from_table(cls, rows, name: str = "phi") -> "MonotoneApproximator":
        """Staircase through listed points (x, y, k, value)."""
        stairs: dict[int, dict[int, tuple[list[int], list[Dyadic]]]] = {}
        # a stable sort keeps rows of equal stage in their listed order
        for x, y, k, v in sorted(rows, key=lambda row: row[2]):
            stages, values = stairs.setdefault(y, {}).setdefault(x, ([], []))
            stages.append(k)
            values.append(v)
        return cls.from_stairs(lambda y: stairs.get(y, {}), name=name)

    @classmethod
    def constant(cls, value: Dyadic, name: str = "const") -> "MonotoneApproximator":
        return cls(lambda x, y, k: value, name=name)


_NO_STAIR = ((), ())


def _stair_value(stair, k: int) -> Dyadic:
    """Stage k of a staircase (stages sorted, values parallel): the last
    listed value at a stage <= k, zero before the first stage."""
    stages, values = stair
    i = bisect_right(stages, k)
    return values[i - 1] if i else ZERO


def load_approximator_csv(text: str, name: str = "phi") -> MonotoneApproximator:
    """Rows of ``x,y,k,num/2^exp``."""
    rows = []
    reader = csv.reader(io.StringIO(text))
    for rec in reader:
        if not rec or rec[0].lstrip().startswith("#"):
            continue
        try:
            x, y, k, v = (f.strip() for f in rec)
            rows.append((int(x), int(y), int(k), Dyadic.parse(v)))
        except ValueError:   # a short or long row, a non-integer, a bad dyadic
            raise ValueError(f"line {reader.line_num}: need x,y,k,num/2^exp") from None
    return MonotoneApproximator.from_table(rows, name=name)


@dataclass(frozen=True)
class ConditionalSemimeasure:
    """Sparse table (x, y) -> mass with every column summing to <= 1."""

    values: dict[tuple[int, int], Dyadic]
    stage: int
    frozen_y: frozenset[int] = frozenset()

    def mass(self, x: int, y: int) -> Dyadic:
        return self.values.get((x, y), ZERO)

    def column_sum(self, y: int) -> Dyadic:
        return sum((v for (xx, yy), v in self.values.items() if yy == y), ZERO)

    def support(self):
        return sorted(self.values)


def normalize_stages(phi: MonotoneApproximator, max_stage: int, per_column: bool = False):
    """Yield the table after each stage of the clamping loop.

    Default semantics: one over-full column at stage k discards the
    whole stage-k sample.  With ``per_column=True`` only the offending
    columns are skipped and the rest still update (a strictly more
    permissive variant, flagged because it changes the result).

    A staircase stream (``phi.stairs`` set) is sampled only where its
    value can change: each point with stairs at its entry stage
    max(x, y) and at its stair stages after that.  Every other stream is
    sampled on the whole square [1..k]^2 at every stage k.  Both visit
    the points of a stage in the same (y, then x) order, and a skipped
    sample would repeat the point's last one or read zero, so the tables
    and the first error are the same.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    values: dict[tuple[int, int], Dyadic] = {}
    violated: set[int] = set()
    start = 1
    if phi.stairs is not None:
        start = yield from _stair_stages(phi, max_stage, per_column, values, violated)
    for k in range(start, max_stage + 1):
        try:
            grid = {(i, j): phi(i, j, k) for j in range(1, k + 1) for i in range(1, k + 1)}
        except DivergeSignal:
            yield ConditionalSemimeasure(dict(values), k, frozenset(violated))
            continue
        bad = set()
        for j in range(1, k + 1):
            if sum((grid[(i, j)] for i in range(1, k + 1)), ZERO) > ONE:
                bad.add(j)
        violated |= bad
        # column sums of a monotone stream never fall, so a plain stage
        # with no bad column has no violated column to skip either
        if per_column or not bad:
            for (i, j), v in grid.items():
                if j in violated:
                    continue
                if v.is_zero:
                    values.pop((i, j), None)
                else:
                    values[(i, j)] = v
        yield ConditionalSemimeasure(dict(values), k, frozenset(violated))


def _stair_stages(phi, max_stage: int, per_column: bool, values: dict, violated: set):
    """The clamping loop on a staircase stream, yielding what the grid
    loop would; returns the stage the grid loop should go on from.

    Column sums are kept running: a sample changes its column's sum by
    its rise over the point's previous sample.  They never fall, so the
    violated columns are those whose sum has passed 1, and an accepted
    stage writes only the points that rose.  A stage whose stairs raise
    ``DivergeSignal`` is handed back to the grid loop, which repeats it:
    every point sampled so far holds the sample of its last stair, so
    the grid loop's extra samples neither raise nor differ.
    """
    stairs = phi.stairs
    due: dict[int, list[tuple[int, int]]] = {}      # stage -> (y, x) of points with a stair there
    last: dict[tuple[int, int], Dyadic] = {}         # each point's latest sample
    sums: dict[int, Dyadic] = {}
    for k in range(1, max_stage + 1):
        entering = [(y, k) for y in range(1, k)] + [(k, x) for x in range(1, k + 1)]
        rises = []
        try:
            for y, x in sorted(entering + due.pop(k, [])):
                if max(x, y) == k:
                    stages = stairs(y).get(x, _NO_STAIR)[0]
                    if not stages:
                        continue   # zero at every stage: its samples can neither raise nor rise
                    for s in set(stages):
                        if k < s <= max_stage:
                            due.setdefault(s, []).append((y, x))
                v = phi(x, y, k)
                if v != last.get((x, y), ZERO):
                    rises.append((x, y, v))
        except DivergeSignal:
            return k
        for x, y, v in rises:
            sums[y] = sums.get(y, ZERO) - last.get((x, y), ZERO) + v
            last[(x, y)] = v
            if sums[y] > ONE:
                violated.add(y)
        if per_column or not violated:
            for x, y, v in rises:
                if y not in violated:
                    values[(x, y)] = v
        yield ConditionalSemimeasure(dict(values), k, frozenset(violated))
    return max_stage + 1


def normalize(phi: MonotoneApproximator, max_stage: int, per_column: bool = False) -> ConditionalSemimeasure:
    """The clamping loop run to ``max_stage``; see normalize_stages."""
    result = None
    for result in normalize_stages(phi, max_stage, per_column):
        pass
    return result


def bar_weight_exponents(n: int) -> list[int]:
    """Component weight exponents from the run-length framed code of the
    component position: 2|word(j)| + 1.  Any finite batch satisfies the
    Kraft inequality, with room left for later components."""
    return [2 * len(nat_to_string(j)) + 1 for j in range(1, n + 1)]


_MAX_WEIGHT_EXPONENT = 4096


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted components: (weight exponent e_j, stream or table).

    Weights are 2**-e_j; their exact sum must stay within 1, which holds
    automatically when the exponents are codeword lengths of a
    prefix-free code.  Exponents run from 0 to 4096: bar_weight_exponents
    stays below 130 for up to 2**64 components, and a larger exponent
    would only make the exact weight sum a number of that many bits.
    """

    components: tuple = ()

    def __post_init__(self) -> None:
        total = ZERO
        for e, comp in self.components:
            if not isinstance(e, int) or e < 0:
                raise WeightError(f"bad weight exponent {e!r}")
            if e > _MAX_WEIGHT_EXPONENT:
                raise WeightError(f"weight exponent {e} above {_MAX_WEIGHT_EXPONENT}")
            if not isinstance(comp, (MonotoneApproximator, ConditionalSemimeasure)):
                raise WeightError(f"component must be a stream or a table: {comp!r}")
            total = total + Dyadic.pow2(e)
        if total > ONE:
            raise WeightError(f"weights sum to {total} > 1")

    @property
    def weights(self) -> list[Dyadic]:
        return [Dyadic.pow2(e) for e, _ in self.components]


def _component_tables(spec: MixtureSpec, max_stage: int, per_column: bool) -> list[ConditionalSemimeasure]:
    tables = []
    for _, comp in spec.components:
        if isinstance(comp, MonotoneApproximator):
            tables.append(normalize(comp, max_stage, per_column))
        else:
            tables.append(comp)
    return tables


def mixture(spec: MixtureSpec, max_stage: int, per_column: bool = False) -> ConditionalSemimeasure:
    """Weighted sum of the clamped components, itself a conditional
    semimeasure: each column sums to at most the weight sum, so to at
    most 1."""
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    # re-validate before any evaluation: specs are checked on
    # construction, but the instance may have been built unsafely
    MixtureSpec(spec.components)
    acc: dict[tuple[int, int], Dyadic] = {}
    frozen: set[int] = set()
    for weight, table in zip(spec.weights, _component_tables(spec, max_stage, per_column)):
        frozen |= table.frozen_y
        for xy, v in table.values.items():
            add = weight * v
            if add.is_zero:
                continue
            acc[xy] = acc.get(xy, ZERO) + add
    return ConditionalSemimeasure(acc, max_stage, frozenset(frozen))


def check_domination(
    m: ConditionalSemimeasure,
    spec: MixtureSpec,
    domain,
    per_column: bool = False,
) -> bool:
    """Exact check that the mixture dominates each weighted component on
    the given (x, y) domain."""
    tables = _component_tables(spec, m.stage, per_column)
    for weight, table in zip(spec.weights, tables):
        for x, y in domain:
            if not m.mass(x, y) >= weight * table.mass(x, y):
                return False
    return True
