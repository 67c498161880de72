"""A toy prefix Turing machine with explicit input reads.

Machine anatomy
---------------
* one-way **input** tape: bits arrive only when a transition requests a
  read, so a halting run is charged with exactly the bits it consumed;
* two-way read-only **auxiliary** tape holding the conditioning word,
  with a marker symbol visible one cell beyond either end;
* two-way binary **work** tape, blank symbol 0;
* append-only **output** tape.

A *situation* is ``(state, pending, aux symbol, work symbol)`` where
``pending`` is the bit delivered by the read requested on the previous
step, or "none".  The transition table maps situations to
``(next state or halt, work write, work move, aux move, optional output
bit, read request)``.  A missing situation leaves the machine stuck,
which counts as divergence.

Acceptance semantics: ``run(m, p, aux, budget)`` reports ``HALTED`` only
when the machine halts having consumed *exactly* ``p``.  Halting before
the end of ``p``, or requesting a bit beyond it, yields ``PAST_END`` --
the supplied word is not a program of the machine (an early halt still
carries its output and bit count so callers can see that the consumed
prefix is the true program).  Under this rule the set of accepted
programs of any machine is prefix-free by construction.  Divergence
that is provable (stuck situation, or an exact repeat of the dynamic
state with no intervening read) is reported as ``OUT_OF_FUEL``, a loop of
lead-in mu and period lam within 3(mu + lam) steps of the last read.

Binary description format
-------------------------
A description is ``header ++ entry*``, read MSB first:

* header: 3 bits, the number of control states minus one (so 1..8);
* each entry is exactly 20 bits:

  ========  ====  ==========================================
  field     bits  coding
  ========  ====  ==========================================
  state     3     0..7, must be below the state count
  pending   2     00 none, 01 bit 0, 10 bit 1, 11 invalid
  aux       2     00 marker, 01 bit 0, 10 bit 1, 11 invalid
  work      1     tape symbol under the work head
  next      4     0000 halt, 0001..1000 go to state 0..7
  write     1     symbol written to the work tape
  wmove     2     00 stay, 01 left, 10 right, 11 invalid
  amove     2     00 stay, 01 left, 10 right, 11 invalid
  out       2     00 none, 01 emit 0, 10 emit 1, 11 invalid
  read      1     1 requests one input bit
  ========  ====  ==========================================

A description is valid iff its length is ``3 + 20k``, every field code
is valid, every state reference is below the state count, and no two
entries share a situation key.  ``enumerate_machines(i)`` decodes the
i-th valid description in length-increasing lexicographic order over
all bit strings; the mapping is frozen by a golden file under tests/.

That order has a closed form, so a position is decoded directly, in
time linear in its entry count and with no cache.  Descriptions come in
blocks by entry count k, then by state count n; a block holds the
product over j < k of (18n - j) * 108(n + 1) descriptions, because entry
j is one of the 18n - j situations that earlier entries left unused
(ascending), then one of the 108(n + 1) actions.  Positions 1-8 have no
entries, the one-entry blocks start at 9, 3897, 15561, ... and the first
two-entry machine is at 466569.

The in-memory model itself is not limited to 8 states -- only
descriptions are; machines built from text fixtures may be larger.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .codes import index_word, nat_to_string, string_to_nat, word_index

__all__ = [
    "HALT",
    "NO_BIT",
    "MARKER",
    "PrefixMachine",
    "MachineFormatError",
    "Outcome",
    "RunOutcome",
    "HaltLeaf",
    "HaltEvent",
    "run",
    "halting_programs",
    "dovetail",
    "universal_run",
    "enumerate_machines",
    "machine_description",
    "encode_description",
    "decode_description",
    "parse_machine_text",
    "machine_to_text",
]

HALT = -1        # next-state sentinel
NO_BIT = 2       # pending value when no read result is waiting
MARKER = 2       # aux symbol beyond either end of the auxiliary word

TKey = tuple[int, int, int, int]
TVal = tuple[int, int, int, int, int | None, bool]


class MachineFormatError(ValueError):
    """Bad transition table, description, or textual fixture."""


@dataclass(frozen=True)
class PrefixMachine:
    """Deterministic prefix machine: state count plus ordered transition entries.

    ``entries`` keeps description order so that decode/encode round-trips
    bit for bit; lookup goes through a derived dict.
    """

    n_states: int
    entries: tuple[tuple[TKey, TVal], ...]
    name: str = field(default="", compare=False)
    index: int | None = field(default=None, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise MachineFormatError("need at least one state")
        table: dict[TKey, TVal] = {}
        for key, val in self.entries:
            state, pending, aux, work = key
            nxt, write, wmove, amove, out, read = val
            if not (0 <= state < self.n_states):
                raise MachineFormatError(f"state {state} out of range")
            if pending not in (0, 1, NO_BIT) or aux not in (0, 1, MARKER):
                raise MachineFormatError(f"bad situation {key}")
            if work not in (0, 1) or write not in (0, 1):
                raise MachineFormatError(f"bad symbol in {key} -> {val}")
            if not (nxt == HALT or 0 <= nxt < self.n_states):
                raise MachineFormatError(f"next state {nxt} out of range")
            if wmove not in (-1, 0, 1) or amove not in (-1, 0, 1):
                raise MachineFormatError(f"bad move in {val}")
            if out not in (0, 1, None) or not isinstance(read, bool):
                raise MachineFormatError(f"bad action in {val}")
            if key in table:
                raise MachineFormatError(f"duplicate situation {key}")
            table[key] = val
        object.__setattr__(self, "_table", table)

    def lookup(self, key: TKey) -> TVal | None:
        return self._table.get(key)

    def digest(self) -> str:
        # computed on first use: most enumerated machines never ask for it
        if self._digest is None:
            text = machine_to_text(self)
            object.__setattr__(self, "_digest", hashlib.sha256(text.encode()).hexdigest()[:16])
        return self._digest

    @property
    def label(self) -> str:
        return self.name or (f"T{self.index}" if self.index else self.digest())


class Outcome(Enum):
    HALTED = "halted"
    OUT_OF_FUEL = "out-of-fuel"
    PAST_END = "past-end"


@dataclass(frozen=True)
class RunOutcome:
    """Result of running a machine on an exact input word.

    ``output``/``bits_read`` are set for HALTED, and also for the
    PAST_END case in which the machine halted early: there they describe
    the accepted prefix.  A read request beyond the word gives PAST_END
    with ``output`` None.
    """

    kind: Outcome
    output: str | None = None
    bits_read: int | None = None

    @property
    def accepted(self) -> bool:
        return self.kind is Outcome.HALTED


class _Sim:
    """Mutable machine configuration."""

    __slots__ = ("state", "pending", "aux_pos", "work", "work_pos", "out", "steps", "bits_read")

    def __init__(self) -> None:
        self.state = 0
        self.pending = NO_BIT
        self.aux_pos = 0
        self.work: dict[int, int] = {}
        self.work_pos = 0
        self.out: list[str] = []
        self.steps = 0
        self.bits_read = 0

    def clone(self) -> "_Sim":
        c = _Sim.__new__(_Sim)
        c.state = self.state
        c.pending = self.pending
        c.aux_pos = self.aux_pos
        c.work = dict(self.work)
        c.work_pos = self.work_pos
        c.out = list(self.out)
        c.steps = self.steps
        c.bits_read = self.bits_read
        return c

    def snapshot(self):
        # translation-invariant dynamic state: marked cells (all ``work``
        # holds) relative to the head; output cannot feed back, so it is out
        cells = frozenset(p - self.work_pos for p in self.work)
        return (self.state, self.pending, self.aux_pos, cells)


def _aux_sym(aux: str, pos: int) -> int:
    if pos < 0 or pos >= len(aux):
        return MARKER
    return int(aux[pos])


_RUNNING, _STUCK, _READ, _HALTED, _FUEL, _LOOP = range(6)


def _step(m: PrefixMachine, sim: _Sim, aux: str) -> int:
    key = (sim.state, sim.pending, _aux_sym(aux, sim.aux_pos), sim.work.get(sim.work_pos, 0))
    sim.pending = NO_BIT
    val = m.lookup(key)
    if val is None:
        return _STUCK
    nxt, write, wmove, amove, out, read = val
    if write:
        sim.work[sim.work_pos] = 1
    else:
        sim.work.pop(sim.work_pos, None)
    sim.work_pos += wmove
    sim.aux_pos = min(max(sim.aux_pos + amove, -1), len(aux))
    if out is not None:
        sim.out.append("1" if out else "0")
    sim.state = nxt
    sim.steps += 1
    return _READ if read else _RUNNING


def _advance(m: PrefixMachine, sim: _Sim, aux: str, step_budget: int) -> int:
    """Step ``sim`` until it halts, requests a read (left to the caller),
    gets stuck, spends ``step_budget`` or repeats its dynamic state, which
    is checked against one checkpoint retaken 1, 2, 4, ... steps in (Brent
    1980) so that memory stays linear in the steps taken."""
    mark = sim.snapshot()
    n = 0
    while sim.state != HALT:
        if sim.steps >= step_budget:
            return _FUEL
        status = _step(m, sim, aux)
        if status != _RUNNING:
            return status
        n += 1
        # cheap fields first: most steps change the state or the mark count
        if sim.state == mark[0] and len(sim.work) == len(mark[3]) and sim.snapshot() == mark:
            return _LOOP
        if n & (n - 1) == 0:
            mark = sim.snapshot()
    return _HALTED


def run(m: PrefixMachine, program: str, aux: str, step_budget: int) -> RunOutcome:
    """Run on exactly ``program`` with ``aux`` on the auxiliary tape."""
    if step_budget < 1:
        raise ValueError("step budget must be positive")
    if program.strip("01") or aux.strip("01"):
        raise ValueError("program and aux must be binary words")
    sim = _Sim()
    while (status := _advance(m, sim, aux, step_budget)) == _READ:
        if sim.bits_read == len(program):
            return RunOutcome(Outcome.PAST_END, None, sim.bits_read)
        sim.pending = int(program[sim.bits_read])
        sim.bits_read += 1
    if status != _HALTED:
        return RunOutcome(Outcome.OUT_OF_FUEL)
    kind = Outcome.HALTED if sim.bits_read == len(program) else Outcome.PAST_END
    return RunOutcome(kind, "".join(sim.out), sim.bits_read)


@dataclass(frozen=True)
class HaltLeaf:
    """An accepted program found by the shared-prefix search."""

    program: str
    output: str
    steps: int


@lru_cache(maxsize=64)
def halting_programs(m: PrefixMachine, aux: str, length_bound: int, step_budget: int) -> tuple[HaltLeaf, ...]:
    """All accepted programs of length <= bound halting within the budget.

    Computations sharing a read-prefix are stepped once, so the cost is
    the tree of distinct runs rather than 2**(L+1) independent ones.
    Leaves are sorted by (length, lexicographic).  Results are cached per
    (machine, aux, bounds); equal machines share an entry.  The cache
    keeps only the 64 most recent keys: repeats come from within one
    computation (the mass table and the mass stream of one machine, the
    per-output searches against one table), not across computations,
    and an entry can hold up to 2**(bound + 1) leaves, so a larger cache
    only keeps dead results alive.
    """
    leaves: list[HaltLeaf] = []
    stack: list[tuple[_Sim, str]] = [(_Sim(), "")]
    while stack:
        sim, prefix = stack.pop()
        status = _advance(m, sim, aux, step_budget)
        if status == _HALTED:
            leaves.append(HaltLeaf(prefix, "".join(sim.out), sim.steps))
        elif status == _READ and len(prefix) < length_bound:
            # the popped sim goes on as the 0-child: one copy per read
            for bit, child in ((1, sim.clone()), (0, sim)):
                child.pending = bit
                child.bits_read += 1
                stack.append((child, prefix + str(bit)))
    leaves.sort(key=lambda l: (len(l.program), l.program))
    return tuple(leaves)


@dataclass(frozen=True)
class HaltEvent:
    """A halt observed by the dovetailing scheduler."""

    program: str
    output: str
    stage: int
    machine_index: int | None = None


def dovetail(m: PrefixMachine, aux: str, max_stage: int, scheduler: str = "shared-tree") -> list[HaltEvent]:
    """Fair interleaving over all programs: at stage k the program at
    position j (length-increasing lexicographic order, starting at 1)
    executes its (k - j)-th step.

    Both schedulers emit the identical event list, ordered by stage and
    then program position.  "staged" is the literal loop: it steps each
    running program once per stage and stops visiting a program once it
    ends (halts, gets stuck or reads past its word); "shared-tree"
    replays the prefix-sharing search and derives each halt's stage
    arithmetically.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    if scheduler == "shared-tree":
        if max_stage < 2:
            return []
        length_bound = len(nat_to_string(max_stage - 2))
        events = []
        for leaf in halting_programs(m, aux, length_bound, max_stage - 1):
            j = word_index(leaf.program)
            if leaf.steps <= max_stage - j:
                events.append(HaltEvent(leaf.program, leaf.output, j + leaf.steps, m.index))
        events.sort(key=lambda e: (e.stage, word_index(e.program)))
        return events
    if scheduler == "staged":
        return _dovetail_staged(m, aux, max_stage)
    raise ValueError(f"unknown scheduler {scheduler!r}")


def _dovetail_staged(m: PrefixMachine, aux: str, max_stage: int) -> list[HaltEvent]:
    # the programs still running, in position order: (its sim, its word)
    running: list[tuple[_Sim, str]] = []
    events: list[HaltEvent] = []
    for k in range(2, max_stage + 1):
        running.append((_Sim(), index_word(k - 1)))
        still: list[tuple[_Sim, str]] = []
        for sim, word in running:
            status = _step(m, sim, aux)
            if status == _STUCK:
                continue
            if status == _READ:
                if sim.bits_read == len(word):
                    continue
                sim.pending = int(word[sim.bits_read])
                sim.bits_read += 1
            if sim.state == HALT:
                if sim.bits_read == len(word):
                    events.append(HaltEvent(word, "".join(sim.out), k, m.index))
                continue
            still.append((sim, word))
        running = still
    return events


# -- standard enumeration ---------------------------------------------

_PENDING_CODES = (NO_BIT, 0, 1)        # field code 0, 1, 2
_AUX_CODES = (MARKER, 0, 1)
_MOVE_CODES = (0, -1, 1)               # stay, left, right
_OUT_CODES = (None, 0, 1)

_ENTRY_BITS = 20
_HEADER_BITS = 3


def _pack_entry(key: TKey, val: TVal) -> str:
    state, pending, aux, work = key
    nxt, write, wmove, amove, out, read = val
    fields = (
        (state, 3),
        (_PENDING_CODES.index(pending), 2),
        (_AUX_CODES.index(aux), 2),
        (work, 1),
        (0 if nxt == HALT else nxt + 1, 4),
        (write, 1),
        (_MOVE_CODES.index(wmove), 2),
        (_MOVE_CODES.index(amove), 2),
        (_OUT_CODES.index(out), 2),
        (int(read), 1),
    )
    return "".join(format(v, "b").zfill(w) for v, w in fields)


def _unpack_entry(bits: str, n_states: int) -> tuple[TKey, TVal] | None:
    pos = 0

    def take(w: int) -> int:
        nonlocal pos
        v = int(bits[pos : pos + w], 2)
        pos += w
        return v

    state = take(3)
    pc, ac, work = take(2), take(2), take(1)
    nc = take(4)
    write = take(1)
    wm, am, oc, read = take(2), take(2), take(2), take(1)
    if state >= n_states or pc > 2 or ac > 2 or wm > 2 or am > 2 or oc > 2:
        return None
    if nc > n_states:       # 0 is halt, 1..n_states are states
        return None
    key = (state, _PENDING_CODES[pc], _AUX_CODES[ac], work)
    val = (HALT if nc == 0 else nc - 1, write, _MOVE_CODES[wm], _MOVE_CODES[am], _OUT_CODES[oc], bool(read))
    return key, val


def encode_description(m: PrefixMachine) -> str:
    """Canonical bits for a machine, entries in stored order."""
    if m.n_states > 8:
        raise MachineFormatError("description format carries at most 8 states")
    header = format(m.n_states - 1, "b").zfill(3)
    return header + "".join(_pack_entry(k, v) for k, v in m.entries)


def decode_description(bits: str) -> PrefixMachine | None:
    """Machine for a valid description, None otherwise."""
    if len(bits) < _HEADER_BITS or (len(bits) - _HEADER_BITS) % _ENTRY_BITS:
        return None
    if bits.strip("01"):
        return None
    n_states = int(bits[:3], 2) + 1
    entries = []
    keys = set()
    for at in range(_HEADER_BITS, len(bits), _ENTRY_BITS):
        parsed = _unpack_entry(bits[at : at + _ENTRY_BITS], n_states)
        if parsed is None or parsed[0] in keys:
            return None
        keys.add(parsed[0])
        entries.append(parsed)
    return PrefixMachine(n_states, tuple(entries))


# situation and action for each digit value, in ascending bit order; a
# block with n states uses the first 18n and the first 108(n + 1) of them
_SITUATIONS = tuple((s // 18, _PENDING_CODES[s // 6 % 3], _AUX_CODES[s // 2 % 3], s % 2) for s in range(18 * 8))
_ACTIONS = tuple(
    (a // 108 - 1 if a >= 108 else HALT, a // 54 % 2, _MOVE_CODES[a // 18 % 3], _MOVE_CODES[a // 6 % 3],
     _OUT_CODES[a // 2 % 3], bool(a % 2))
    for a in range(108 * 9)
)


def _position_entries(i: int) -> tuple[int, tuple[tuple[TKey, TVal], ...]]:
    """(state count, entries) of the i-th valid description.

    Every field's valid codes are a prefix of its range and the situation
    fields lead each entry, so each (k entries, n states) block of the
    order described in the module docstring is a mixed-radix number.
    """
    if i < 1:
        raise ValueError("machine positions start at 1")
    rest = i - 1
    sizes = [1] * 9                     # block size per state count 1..8
    for k in range(18 * 8 + 1):
        for n in range(1, 9):
            if k:
                sizes[n] *= (18 * n - k + 1) * 108 * (n + 1)
            if rest >= sizes[n]:
                rest -= sizes[n]
                continue
            digits = []
            for j in reversed(range(k)):
                rest, action = divmod(rest, 108 * (n + 1))
                rest, situation = divmod(rest, 18 * n - j)
                digits.append((situation, action))
            used: list[int] = []
            entries = []
            for s, action in reversed(digits):
                for u in used:          # the s-th situation not used yet
                    if u <= s:
                        s += 1
                used.append(s)
                used.sort()
                entries.append((_SITUATIONS[s], _ACTIONS[action]))
            return n, tuple(entries)
    raise ValueError(f"no valid description at position {i}")


def enumerate_machines(i: int) -> PrefixMachine:
    """The machine decoded from the i-th valid description (i >= 1)."""
    n_states, entries = _position_entries(i)
    return PrefixMachine(n_states, entries, name=f"T{i}", index=i)


def machine_description(i: int) -> str:
    return encode_description(enumerate_machines(i))


def universal_run(word: str, aux: str, step_budget: int) -> RunOutcome:
    """Simulate <position, program>: a bar-coded machine position followed
    by that machine's program.  Consumes the whole word on acceptance, so
    universal programs stay prefix-free."""
    if word.strip("01"):
        raise ValueError("need a binary word")
    n = 0
    while n < len(word) and word[n] == "1":
        n += 1
    if n == len(word) or len(word) < 2 * n + 1:
        return RunOutcome(Outcome.PAST_END, None, len(word))
    i = string_to_nat(word[n + 1 : 2 * n + 1])
    consumed = 2 * n + 1
    if i < 1:
        return RunOutcome(Outcome.PAST_END, None, consumed)
    inner = run(enumerate_machines(i), word[consumed:], aux, step_budget)
    if inner.kind is Outcome.OUT_OF_FUEL:
        return inner
    bits = consumed + (inner.bits_read or 0)
    return RunOutcome(inner.kind, inner.output, bits)


# -- textual fixture format -------------------------------------------

_PENDING_TOKENS = {"-": NO_BIT, "0": 0, "1": 1}
_AUX_TOKENS = {"$": MARKER, "0": 0, "1": 1}
_MOVE_TOKENS = {"S": 0, "L": -1, "R": 1}
_OUT_TOKENS = {".": None, "0": 0, "1": 1}


def parse_machine_text(text: str, name: str = "") -> PrefixMachine:
    """Parse the textual transition format.

    Line grammar (# starts a comment)::

        states N
        state pending aux work -> next write wmove amove out read

    where pending is ``-``/0/1, aux is ``$``/0/1, ``*`` in the pending,
    aux, or work column expands over every symbol, next is a state
    number or ``H``, moves are L/S/R, out is ``.``/0/1, read is ``.``
    or ``r``.
    """
    n_states = None
    entries: list[tuple[TKey, TVal]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "states":
            if n_states is not None:
                raise MachineFormatError(f"line {lineno}: duplicate states line")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise MachineFormatError(f"line {lineno}: bad states line {line!r}")
            n_states = int(parts[1])
            continue
        if n_states is None:
            raise MachineFormatError(f"line {lineno}: states line must come first")
        if len(parts) != 11 or parts[4] != "->":
            raise MachineFormatError(f"line {lineno}: bad entry {line!r}")
        try:
            state = int(parts[0])
            pendings = _PENDING_TOKENS.values() if parts[1] == "*" else (_PENDING_TOKENS[parts[1]],)
            auxes = _AUX_TOKENS.values() if parts[2] == "*" else (_AUX_TOKENS[parts[2]],)
            works = (0, 1) if parts[3] == "*" else (int(parts[3]),)
            nxt = HALT if parts[5] == "H" else int(parts[5])
            val = (
                nxt,
                int(parts[6]),
                _MOVE_TOKENS[parts[7]],
                _MOVE_TOKENS[parts[8]],
                _OUT_TOKENS[parts[9]],
                parts[10] == "r",
            )
        except (KeyError, ValueError) as err:
            raise MachineFormatError(f"line {lineno}: bad entry {line!r}") from err
        for pending in pendings:
            for aux in auxes:
                for work in works:
                    entries.append(((state, pending, aux, work), val))
    if n_states is None:
        raise MachineFormatError("missing states line")
    return PrefixMachine(n_states, tuple(entries), name=name)


def machine_to_text(m: PrefixMachine) -> str:
    """Serialize with one explicit line per entry, in key order."""
    rev_pending = {v: k for k, v in _PENDING_TOKENS.items()}
    rev_aux = {v: k for k, v in _AUX_TOKENS.items()}
    rev_move = {v: k for k, v in _MOVE_TOKENS.items()}
    rev_out = {v: k for k, v in _OUT_TOKENS.items()}
    lines = [f"states {m.n_states}"]
    for key, val in sorted(m.entries, key=lambda kv: kv[0]):
        state, pending, aux, work = key
        nxt, write, wmove, amove, out, read = val
        lines.append(
            f"{state} {rev_pending[pending]} {rev_aux[aux]} {work} -> "
            f"{'H' if nxt == HALT else nxt} {write} {rev_move[wmove]} {rev_move[amove]} "
            f"{rev_out[out]} {'r' if read else '.'}"
        )
    return "\n".join(lines) + "\n"
