"""Seeded input generators for the benchmark.

Everything handed to kolmo is generated here as text or words from a
``random.Random`` seeded by the caller: machine text (``.tm``), aux words
and approximator CSV.  Each generator also returns what the benchmark
needs to check the output without trusting kolmo (the staircase a CSV
encodes, the outcome a generated machine must reach).

Sizes are drawn per round: a round holds every (kind, level) pair of a
workload once, in a seeded order, and each level draws its size from the
middle of its own slice of a log-uniform range.
"""

from __future__ import annotations

from fractions import Fraction


def word(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def level_size(rng, level: int, levels: int, lo: int, hi: int) -> int:
    """A size from the middle of the ``level``-th of ``levels`` equal
    slices of the log-uniform range [lo, hi]."""
    u = (level + 0.49 + 0.02 * rng.random()) / levels
    return round(lo * (hi / lo) ** u)


# -- machine text -------------------------------------------------------------

_MOVES = "LSR"


def _entry(state, pending, aux, work, nxt, write, wmove, amove, out, read) -> str:
    return f"{state} {pending} {aux} {work} -> {nxt} {write} {wmove} {amove} {out} {read}"


def _padding(rng, first_state: int, n_pad: int) -> list[str]:
    """Entries for states nothing transitions to: they change the machine
    (and so every cache key built from it) without changing its runs."""
    lines = []
    for s in range(first_state, first_state + n_pad):
        keys = set()
        for _ in range(rng.randint(1, 3)):
            key = (rng.choice("-01"), rng.choice("$01"), rng.choice("01"))
            if key in keys:
                continue
            keys.add(key)
            nxt = rng.choice(["H", str(rng.randrange(first_state + n_pad))])
            lines.append(_entry(s, *key, nxt, rng.choice("01"), rng.choice(_MOVES),
                                rng.choice(_MOVES), rng.choice(".01"), rng.choice(".r")))
    return lines


def variant_text(rng, base_text: str) -> str:
    """The machine of ``base_text`` (explicit entries, one per line) with
    its entries shuffled and one to three unreachable states appended."""
    lines = [l for l in base_text.splitlines() if l.strip()]
    n_states = int(lines[0].split()[1])
    body = lines[1:]
    n_pad = rng.randint(1, 3)
    body += _padding(rng, n_states, n_pad)
    rng.shuffle(body)
    return f"states {n_states + n_pad}\n" + "\n".join(body) + "\n"


def _ident_core(b: int, w: str, silent: bool) -> list[str]:
    """States b..b+4 of the identity: read 1^n 0, then n payload bits,
    echoing them unless ``silent``, then walk the aux word and halt."""
    o0, o1 = (".", ".") if silent else (0, 1)
    post = b + 4
    return [
        _entry(b, "-", "*", "*", b + 1, 0, "S", "S", ".", "r"),
        _entry(b + 1, 1, "*", "*", b + 1, 1, "R", "S", ".", "r"),
        _entry(b + 1, 0, "*", "*", b + 2, 0, "L", "S", ".", "."),
        _entry(b + 2, "-", "*", 1, b + 3, 0, "S", "S", ".", "r"),
        _entry(b + 2, "-", "*", 0, post, 0, "S", "S", ".", "."),
        _entry(b + 3, 0, "*", "*", b + 2, 0, "L", "S", o0, "."),
        _entry(b + 3, 1, "*", "*", b + 2, 0, "L", "S", o1, "."),
        _entry(post, "-", 0, "*", post, w, "R", "R", ".", "."),
        _entry(post, "-", 1, "*", post, w, "R", "R", ".", "."),
        _entry(post, "-", "$", "*", "H", 0, "S", "S", ".", "."),
    ]


def ident_text(rng, preamble: int, write: bool, branch: str = "") -> str:
    """The self-delimiting identity (programs 1^n 0 x, output x) between a
    preamble of ``preamble`` steps, shared by every program, and a
    postamble that walks the aux word to its end marker before halting,
    paid once per halting program.  A writing machine marks a work cell
    on every preamble and postamble step; the preamble's marks end in a
    blank gap cell, so the identity's own markers never run into them.

    With ``branch`` the programs are 0 q and 1 0 q for every identity
    program q: ``"same"`` gives x a second, longer program (so the
    shortest program is a real choice), ``"silent"`` sends every 1 0 q to
    the empty output (so masses are not all powers of two)."""
    lines = []
    w = "1" if write else "0"
    for s in range(preamble):
        lines.append(_entry(s, "*", "*", "*", s + 1, w, "R", "S", ".", "."))
    b = preamble
    if write and preamble:
        lines.append(_entry(b, "*", "*", "*", b + 1, 0, "R", "S", ".", "."))
        b += 1
    if branch:
        core = b + 3
        second = core if branch == "same" else core + 5
        lines += [
            _entry(b, "-", "*", "*", b + 1, 0, "S", "S", ".", "r"),
            _entry(b + 1, 0, "*", "*", core, 0, "S", "S", ".", "."),
            _entry(b + 1, 1, "*", "*", b + 2, 0, "S", "S", ".", "r"),
            _entry(b + 2, 0, "*", "*", second, 0, "S", "S", ".", "."),
        ]
        b = core
    lines += _ident_core(b, w, False)
    n_states = b + 5
    if branch == "silent":
        lines += _ident_core(n_states, w, True)
        n_states += 5
    lines += _padding(rng, n_states, 1)
    rng.shuffle(lines)
    return f"states {n_states + 1}\n" + "\n".join(lines) + "\n"


def walker_text(rng, n_echo: int, write: bool, bounce: bool) -> str:
    """Echo ``n_echo`` program bits, then walk the aux tape to its end
    marker, marking each work cell on the way when ``write``.  A walker
    halts at the marker; a bouncer turns round at either marker forever,
    so its run repeats a configuration and can never halt."""
    w = "1" if write else "0"
    lines = [_entry(0, "-", "*", "*", 1, 0, "S", "S", ".", "r")]
    for s in range(1, n_echo):
        for b in "01":
            lines.append(_entry(s, b, "*", "*", s + 1, 0, "S", "S", b, "r"))
    walk = n_echo + 1
    for b in "01":
        lines.append(_entry(n_echo, b, "*", "*", walk, 0, "S", "S", b, "."))
    back = walk + 1
    for a in "01":
        lines.append(_entry(walk, "-", a, "*", walk, w, "R", "R", ".", "."))
    if bounce:
        lines.append(_entry(walk, "-", "$", "*", back, w, "L", "L", ".", "."))
        for a in "01":
            lines.append(_entry(back, "-", a, "*", back, w, "L", "L", ".", "."))
        lines.append(_entry(back, "-", "$", "*", walk, w, "R", "R", ".", "."))
    else:
        lines.append(_entry(walk, "-", "$", "*", "H", 0, "S", "S", ".", "."))
    n_states = back + 1
    lines += _padding(rng, n_states, 1)
    rng.shuffle(lines)
    return f"states {n_states + 1}\n" + "\n".join(lines) + "\n"


def walker_steps(n_echo: int, aux_len: int) -> int:
    """Steps a halting walker takes: one read request, n_echo - 1 echo
    steps that also request, the last echo step, one step per aux cell,
    and the halting step."""
    return n_echo + aux_len + 2


# -- approximator CSV ---------------------------------------------------------

def staircase_csv(rng, size: int, overfull_frac: float):
    """CSV text of a monotone stream on [1..size]^2 plus its stairs.

    Each column holds a few nonzero points, each a staircase of one to
    three dyadic steps over the stages.  Columns are filled to at most 1,
    except an ``overfull_frac`` share that is pushed past 1 at a seeded
    stage, which is what freezes the clamping loop.  Returns the text and
    ``{(x, y): [(k, Fraction), ...]}`` with steps in stage order.
    """
    stairs: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    n_over = round(overfull_frac * size)
    over_cols = set(rng.sample(range(1, size + 1), n_over))
    for y in range(1, size + 1):
        xs = rng.sample(range(1, size + 1), min(size, rng.randint(2, 5)))
        budget = Fraction(rng.randint(5, 8), 8)
        share = budget / len(xs)
        for x in xs:
            final = Fraction(int(share * 256), 256)
            stairs[(x, y)] = _steps(rng, size, final)
        if y in over_cols:
            x = rng.choice(xs)
            k_over = rng.randint(max(x, y), size)
            steps = [(k, v) for k, v in stairs[(x, y)] if k < k_over]
            stairs[(x, y)] = steps + [(k_over, Fraction(17, 16))]
    lines = []
    for (x, y), steps in sorted(stairs.items()):
        for k, v in steps:
            lines.append(f"{x},{y},{k},{_dyadic_text(v)}")
    rng.shuffle(lines)
    return "# x,y,k,value\n" + "\n".join(lines) + "\n", stairs


def _steps(rng, size: int, final: Fraction) -> list[tuple[int, Fraction]]:
    n = rng.randint(1, 3)
    ks = sorted(rng.sample(range(1, size + 1), n))
    vals = sorted(Fraction(rng.randint(1, max(1, int(final * 256))), 256) for _ in range(n - 1))
    vals.append(final)
    return [(k, v) for k, v in zip(ks, vals) if v > 0]


def _dyadic_text(v: Fraction) -> str:
    den = v.denominator
    return f"{v.numerator}/2^{den.bit_length() - 1}"


def stair_value(steps, k: int) -> Fraction:
    value = Fraction(0)
    for kk, vv in steps:
        if kk > k:
            break
        value = vv
    return value
