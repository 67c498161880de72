"""The three workloads: how each operation is drawn, run, checked and
written down for the output digest.

Operations call kolmo only through module attributes
(``prefix_vm.run(...)``), so the traced run sees every call once the
tracer has wrapped those attributes.  Checks recompute results from the
generator's own knowledge of the input (staircases, machine behaviour)
or from kolmo's slow literal referees (per-word ``run``, the ``staged``
scheduler) rather than from the path under test.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as Op

from kolmo import apriori, cli, codes, complexity, prefix_vm, quotient_demo, semimeasures, sf_coder
from kolmo.fixtures import load_fixture

import gen

FIXTURES = ("ident", "copy2", "twoway", "echo1")


def frac(d) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def wt(w: str) -> str:
    return w if w else "-"


def words_upto(n: int):
    """Every binary word of length <= n in (length, lexicographic) order."""
    for length in range(n + 1):
        for i in range(1 << length):
            yield format(i, f"0{length}b") if length else ""


def nat_word(i: int) -> str:
    return format(i + 1, "b")[1:]


def word_pos(w: str) -> int:
    return int("1" + w, 2)


def ceil_log2_inv(v: Fraction) -> int:
    """ceil(log2(1/v)) for v > 0: the least k with 2**-k <= v."""
    k = v.denominator.bit_length() - v.numerator.bit_length()
    while Fraction(2) ** -k > v:
        k += 1
    while Fraction(2) ** -(k - 1) <= v:
        k -= 1
    return k


def staged_masses(m, aux: str, stage: int, length_bound: int) -> dict[str, Fraction]:
    """Output masses recomputed from the literal staged scheduler."""
    acc: dict[str, Fraction] = {}
    for ev in prefix_vm.dovetail(m, aux, stage, "staged"):
        if len(ev.program) <= length_bound:
            acc[ev.output] = acc.get(ev.output, Fraction(0)) + Fraction(1, 1 << len(ev.program))
    return acc


def table_errors(label: str, entries, oracle: dict[str, Fraction]) -> list[str]:
    got = {x: frac(v) for x, v in entries.items()}
    errs = []
    if got != oracle:
        errs.append(f"{label}: masses differ from the staged scheduler")
    if sum(oracle.values(), Fraction(0)) > 1:
        errs.append(f"{label}: total mass above 1")
    return errs


def prefix_free(words) -> bool:
    ws = sorted(set(words))
    return all(not b.startswith(a) for a, b in zip(ws, ws[1:]))


class Workload:
    """One workload: a seeded stream of operations in rounds.

    ``used`` holds the hash of every machine (and universal search key)
    already handed out, so no two operations of a run share a
    ``halting_programs`` key and each pays for its own search.  Hashes
    keep the set small; a collision only costs a redraw.
    """

    name = ""

    def __init__(self, work: Path):
        self.work = work
        self.used: set = set()
        self.serial = 0
        self.rounds = 0

    def round(self, rng) -> list[Op]:
        """The next round, in a seeded order.  Parameters that set an
        operation's cost follow (round, level) on a fixed cycle, so every
        seed gets the same mix of costs; the seed picks the contents."""
        ops = self.draw(rng, self.rounds)
        self.rounds += 1
        rng.shuffle(ops)
        return ops

    def fresh(self, make):
        """Draw with ``make`` until the result was not used before."""
        while True:
            item = make()
            if hash(item) not in self.used:
                self.used.add(hash(item))
                return item

    def op(self, kind: str, **fields) -> Op:
        self.serial += 1
        return Op(kind=kind, serial=self.serial, **fields)

    def warm(self) -> None:
        """Set-up work the operations drawn so far rely on; none by default."""

    def tape_writing(self, op) -> bool:
        return False


# -- codebook ----------------------------------------------------------------

class Codebook(Workload):
    """The README's coding pipeline on a fixture, from mass table to the
    compiled decoder and one CLI round trip."""

    name = "codebook"
    LEVELS = 3

    def __init__(self, work: Path):
        super().__init__(work)
        self.bases = {f: prefix_vm.machine_to_text(load_fixture(f)) for f in FIXTURES}

    def draw(self, rng, r: int) -> list[Op]:
        ops = []
        for f, fx in enumerate(FIXTURES):
            for level in range(self.LEVELS):
                machine = self.fresh(lambda: prefix_vm.parse_machine_text(
                    gen.variant_text(rng, self.bases[fx]), name=fx))
                ops.append(self.op(
                    "book", machine=machine,
                    aux=gen.word(rng, (r + level) % 4),
                    stage=gen.level_size(rng, level, self.LEVELS, 60, 240),
                    L=4 + (r + level + f) % 7, pick=rng.randrange(1 << 30)))
        return ops

    def run(self, op):
        m, aux = op.machine, op.aux
        table = apriori.approx_apriori(m, aux, op.stage, op.L)
        max_x = max((codes.word_index(x) for x in table.entries), default=1)
        phi = sf_coder.machine_mass_stream(m, op.stage, op.L)
        book = sf_coder.build_codebook(
            phi, aux, op.stage + max_x + 1, provenance=f"machine:{m.label}:{op.stage}:{op.L}")
        text = sf_coder.format_codebook(book)
        parsed = sf_coder.parse_codebook(text)
        symbols = parsed.symbols()
        codewords = {x: parsed.codeword(x) for x in symbols}
        decoded = {x: sf_coder.decode(parsed, w, aux) for x, w in codewords.items()}
        decoder = sf_coder.codebook_to_machine(parsed)
        decoder_text = prefix_vm.machine_to_text(decoder)

        stem = self.work / f"book{op.serial}"
        paths = {k: f"{stem}.{k}" for k in ("tsv", "tm", "enc", "dec", "run", "m1", "m2", "m3")}
        Path(paths["tsv"]).write_text(text)
        Path(paths["tm"]).write_text(decoder_text)
        x = symbols[op.pick % len(symbols)]
        w = codewords[x]
        codes_ = [
            cli.main(["code", "encode", "--book", paths["tsv"], "--x", wt(x),
                      "--output", paths["enc"], "--manifest", paths["m1"]]),
            cli.main(["code", "decode", "--book", paths["tsv"], "-p", wt(w), "--aux", wt(aux),
                      "--output", paths["dec"], "--manifest", paths["m2"]]),
            cli.main(["vm", "run", "-m", paths["tm"], "-p", wt(w), "--aux", wt(aux),
                      "--output", paths["run"], "--manifest", paths["m3"]]),
        ]
        cli_out = [Path(paths[k]).read_text() for k in ("enc", "dec", "run")]
        manifests = [json.loads(Path(paths[k]).read_text()) for k in ("m1", "m2", "m3")]
        return Op(table=table, book=book, text=text, parsed=parsed, codewords=codewords,
                  decoded=decoded, decoder=decoder, decoder_text=decoder_text, x=x, w=w,
                  exit_codes=codes_, cli_out=cli_out, manifests=manifests)

    def check(self, op, r) -> list[str]:
        errs = table_errors("table", r.table.entries, staged_masses(op.machine, op.aux, op.stage, op.L))
        q = {x: frac(v) for x, v in r.table.entries.items()}
        cursor = Fraction(0)
        best: dict[str, Fraction] = {}
        for sym, word, iv, ev in r.book.entries:
            lo, hi, mass = frac(iv.lo), frac(iv.hi), frac(ev.mass)
            cell = Fraction(int(word, 2) if word else 0, 1 << len(word))
            if lo != cursor or hi - lo != mass / 2:
                errs.append(f"book: interval of {sym!r} is not the next half-mass slice")
            if not (lo <= cell and cell + Fraction(1, 1 << len(word)) <= hi):
                errs.append(f"book: codeword {word!r} leaves its interval")
            if mass <= best.get(sym, Fraction(0)):
                errs.append(f"book: events of {sym!r} do not grow")
            best[sym] = mass
            cursor = hi
        if cursor > 1 or frac(r.book.layout_cursor) != cursor:
            errs.append("book: cursor wrong or past 1")
        if set(best) != set(q):
            errs.append("book: symbols differ from the table's outputs")
        for x, mass in best.items():
            if not (mass <= q.get(x, 0) < 2 * mass):
                errs.append(f"book: last event of {x!r} is not the bracket of its mass")
            elif len(r.codewords.get(x) or "") > ceil_log2_inv(q[x]) + 3:
                errs.append(f"book: codeword of {x!r} longer than the bound")
        words = [e[1] for e in r.book.entries]
        kraft = sum((Fraction(1, 1 << len(w)) for w in set(words)), Fraction(0))
        if not prefix_free(words) or kraft > 1:
            errs.append("book: codewords not prefix-free or Kraft sum above 1")
        if codes.is_prefix_free(words) != prefix_free(words) or frac(codes.kraft_sum(words)) != kraft:
            errs.append("codes: is_prefix_free/kraft_sum disagree with the recount")
        if sf_coder.format_codebook(r.parsed) != r.text:
            errs.append("book: format/parse round trip changed the text")
        for x, w in r.codewords.items():
            if r.decoded[x] != x:
                errs.append(f"decode(encode({x!r})) != {x!r}")
            out = prefix_vm.run(r.decoder, w, op.aux, 10_000)
            if not out.accepted or out.output != x or out.bits_read != len(w):
                errs.append(f"compiled decoder disagrees on {w!r}")
        expect = [wt(r.w) + "\n", wt(r.x) + "\n", f"halted\toutput={wt(r.x)}\tbits_read={len(r.w)}\n"]
        if r.exit_codes != [0, 0, 0] or r.cli_out != expect:
            errs.append(f"cli round trip: {r.exit_codes} {r.cli_out!r}")
        for text, man in zip(r.cli_out, r.manifests):
            if man.get("output_sha256") != hashlib.sha256(text.encode()).hexdigest():
                errs.append("cli manifest digest does not match its output")
        return errs

    def canon(self, op, r) -> str:
        return apriori.format_table(r.table) + r.text + r.decoder_text + "".join(r.cli_out)


# -- search ------------------------------------------------------------------

class Search(Workload):
    """Program search: shortest programs, universal search, mass tables
    with persistence, both dovetail schedulers, raw runs and the quotient
    gap report."""

    name = "search"
    # (kind, levels): each round holds every (kind, level) pair once
    KINDS = (("k", 2), ("u", 2), ("a", 2), ("d", 2), ("rw", 3), ("rn", 2), ("g", 1))

    def __init__(self, work: Path):
        super().__init__(work)
        self.max_universal = 0

    def ident(self, rng, preamble: int, write: bool, branch: str = ""):
        return self.fresh(lambda: prefix_vm.parse_machine_text(
            gen.ident_text(rng, preamble, write, branch),
            name=f"ident{preamble}{'w' if write else ''}{branch}"))

    def draw(self, rng, r: int) -> list[Op]:
        return [getattr(self, "draw_" + kind[0])(rng, kind, level, levels, r + level)
                for kind, levels in self.KINDS for level in range(levels)]

    def draw_k(self, rng, kind, level, levels, c):
        L = 9 + level + c % 2
        write = c % 2 == 0
        x = gen.word(rng, c % ((L - 1) // 2 + 2))
        aux = gen.word(rng, gen.level_size(rng, level, levels, 30, 150))
        return self.op("k", machine=self.ident(rng, 4 + 4 * (c % 4), write, "same"), write=write, x=x, aux=aux,
                       L=L, S=400 + 100 * (c % 7))

    def draw_u(self, rng, kind, level, levels, c):
        L = 17 + gen.level_size(rng, level, levels, 2, 10)
        aux, S = gen.word(rng, c % 4), 150 + 10 * (c % 7)
        while hash((aux, L, S)) in self.used:   # a step more keeps the key fresh at no real cost
            S += 1
        self.used.add(hash((aux, L, S)))
        self.max_universal = max(self.max_universal, L)
        return self.op("u", write=False, x=gen.word(rng, c % 3), aux=aux, L=L, S=S)

    def draw_a(self, rng, kind, level, levels, c):
        stage = gen.level_size(rng, level, levels, 600, 2500)
        L = 7 + c % 5
        write = c % 2 == 0
        return self.op("a", machine=self.ident(rng, 4 + c % 9, write, ("", "silent")[c % 2]), write=write,
                       aux=gen.word(rng, 10 + 10 * (c % 6)), stage=stage, L=L,
                       S=400 + 100 * (c % 7), stage2=stage + 50 + 70 * (c % 6), L2=L + c % 3)

    def draw_d(self, rng, kind, level, levels, c):
        fx = FIXTURES[c % len(FIXTURES)]
        write = fx == "ident" and c % 8 < 4
        if fx == "ident":
            m = self.ident(rng, c % 13, write)
        else:
            m = self.fresh(lambda: prefix_vm.parse_machine_text(
                gen.variant_text(rng, prefix_vm.machine_to_text(load_fixture(fx))), name=fx))
        return self.op("d", machine=m, write=write, aux=gen.word(rng, (7 * c) % 41),
                       stage=gen.level_size(rng, level, levels, 1000, 2000))

    def draw_r(self, rng, kind, level, levels, c):
        write = kind == "rw"
        if write:
            # two large writers a round make the slowest operations one
            # homogeneous group, which keeps op_tail_ms steady; a writing
            # bouncer keeps every snapshot of a full tape twice over, so
            # only the small writer bounces
            d = (500, 1350, 1350)[level] + rng.randrange(20)
            bounce = level == 0 and c % 2 == 0
        else:
            d = gen.level_size(rng, level, levels, 8000, 24000)
            bounce = c % 3 == 0
        n_echo = 1 + c % 8
        m = prefix_vm.parse_machine_text(gen.walker_text(rng, n_echo, write, bounce),
                                         name=f"walker{n_echo}")
        need = gen.walker_steps(n_echo, d)
        # exactly enough, one step short, a quarter short (small walkers
        # only, to keep the large ones alike) or some slack
        cut = (0, 1, need // 4 if level == 0 or not write else 1, -40)[(c + level) % 4]
        budget = need - cut
        program = gen.word(rng, n_echo)
        halts = not bounce and budget >= need
        return self.op("r", machine=m, program=program, aux=gen.word(rng, d), budget=budget,
                       write=write, expect=("halted", program, n_echo) if halts else ("out-of-fuel", None, None))

    def draw_g(self, rng, kind, level, levels, c):
        sets = [sorted({gen.word(rng, rng.randint(0, 3)) for _ in range(1 + (c + i) % 4)})
                for i in range(2 + c % 3)]
        write = c % 2 == 0
        return self.op("g", machine=self.ident(rng, 12 + (5 * c) % 29, write, "silent"), write=write, sets=sets,
                       stage=1500 + 300 * (c % 6), L=8 + c % 3, S=400 + 100 * (c % 7),
                       probes=tuple(gen.word(rng, 1 + (c + i) % 3) for i in range(c % 3)))

    def warm(self) -> None:
        # every position a universal search of the largest bound reaches
        top = self.max_universal
        if top:
            prefix_vm.enumerate_machines((1 << ((top - 1) // 2 + 1)) - 2)

    def tape_writing(self, op) -> bool:
        return op.write

    def run(self, op):
        k = op.kind
        if k == "k":
            return complexity.approx_k(op.machine, op.x, op.aux, op.L, op.S)
        if k == "u":
            return complexity.approx_k_universal(op.x, op.aux, op.L, op.S)
        if k == "a":
            m = op.machine
            table = apriori.approx_apriori(m, op.aux, op.stage, op.L)
            ests = [complexity.approx_k(m, x, op.aux, op.L, op.S)
                    for x in sorted(table.entries, key=lambda w: (len(w), w))]
            rows = apriori.apriori_vs_k(table, [e for e in ests if e])
            path = self.work / f"table{op.serial}.tsv"
            apriori.save_table(table, path)
            loaded = apriori.load_table(path)
            extended = apriori.extend_table(loaded, m, op.stage2, op.L2)
            return Op(table=table, rows=rows, loaded=loaded, extended=extended)
        if k == "d":
            return (prefix_vm.dovetail(op.machine, op.aux, op.stage, "staged"),
                    prefix_vm.dovetail(op.machine, op.aux, op.stage, "shared-tree"))
        if k == "r":
            return prefix_vm.run(op.machine, op.program, op.aux, op.budget)
        sets = [quotient_demo.ConditioningSet.of(s) for s in op.sets]
        return quotient_demo.single_gap_report(op.machine, sets, op.stage, op.L, op.S,
                                               extra_probes=op.probes)

    def check(self, op, r) -> list[str]:
        k = op.kind
        if k == "k":
            return self.check_k(op, r)
        if k == "u":
            if r is None:
                return []
            out = prefix_vm.universal_run(r.witness, op.aux, op.S)
            if not out.accepted or out.output != op.x or len(r.witness) != r.bits or r.bits > op.L:
                return [f"universal witness {r.witness!r} does not reproduce {op.x!r}"]
            return []
        if k == "a":
            errs = table_errors("table", r.table.entries, staged_masses(op.machine, op.aux, op.stage, op.L))
            if apriori.format_table(r.loaded) != apriori.format_table(r.table):
                errs.append("table: save/load round trip changed it")
            if any(frac(v) > frac(r.extended.mass(x)) for x, v in r.table.entries.items()):
                errs.append("extend_table: not a monotone refinement")
            if not all(row.ok for row in r.rows):
                errs.append("apriori_vs_k: dominance violated")
            return errs
        if k == "d":
            staged, tree = (self.events_text(evs) for evs in r)
            return [] if staged == tree else ["dovetail: schedulers disagree"]
        if k == "r":
            got = (r.kind.value, r.output, r.bits_read)
            return [] if got == op.expect else [f"run: {got} expected {op.expect}"]
        return self.check_g(op, r)

    def check_k(self, op, r) -> list[str]:
        # per-word run on every word up to the bound, except extensions of
        # an accepted program: those are never programs (prefix property)
        referee = []
        accepted = set()
        for w in words_upto(op.L):
            if any(w[:i] in accepted for i in range(len(w))):
                continue
            out = prefix_vm.run(op.machine, w, op.aux, op.S)
            if out.accepted:
                accepted.add(w)
                referee.append((w, out.output))
        leaves = [(l.program, l.output) for l in prefix_vm.halting_programs(op.machine, op.aux, op.L, op.S)]
        errs = [] if leaves == referee else ["halting_programs: leaves differ from per-word run"]
        first = next((w for w, out in referee if out == op.x), None)
        got = r.witness if r else None
        if got != first or (r and r.bits != len(first)):
            errs.append(f"approx_k: {got!r}, per-word run finds {first!r}")
        return errs

    def check_g(self, op, rows) -> list[str]:
        # the masses themselves are refereed by the "a" operations; this
        # recomputes everything the report derives from them
        table = apriori.approx_apriori(op.machine, "", op.stage, op.L)
        q = {x: frac(v) for x, v in table.entries.items()}
        expected = []
        for members in op.sets:
            probes = sorted(members, key=lambda w: (len(w), w))
            expected += [(members, x) for x in probes + [p for p in op.probes if p not in members]]
        if [row.x for row in rows] != [x for _, x in expected]:
            return ["gap report: rows are not the probes of each set"]
        errs = []
        for row, (members, x) in zip(rows, expected):
            indicator = "".join("1" if nat_word(i) in members else "0"
                                for i in range(max(word_pos(w) for w in members)))
            mass_x, mass_ind = q.get(x, Fraction(0)), q.get(indicator, Fraction(0))
            if row.in_event != (x in members) or frac(row.mass_x) != mass_x \
                    or frac(row.mass_indicator) != mass_ind:
                errs.append(f"gap report: masses of {x!r} wrong")
                continue
            if not row.in_event:
                continue
            if (row.ratio is None) != (mass_x == 0 or mass_ind == 0):
                errs.append("gap report: ratio missing or spurious")
            elif row.ratio is not None:
                lo, hi = row.neg_log_ratio_floor, row.neg_log_ratio_ceil
                if row.ratio != mass_x / mass_ind or hi - lo not in (0, 1) \
                        or not (Fraction(2) ** -hi <= row.ratio <= Fraction(2) ** -lo):
                    errs.append("gap report: ratio or its log bracket wrong")
            event = sum((q.get(w, Fraction(0)) for w in members), Fraction(0))
            if row.conditional != (mass_x / event if event else None):
                errs.append("gap report: conditional wrong")
        return errs

    @staticmethod
    def events_text(events) -> str:
        return "".join(f"{e.stage}\t{wt(e.program)}\t{wt(e.output)}\n" for e in events)

    def canon(self, op, r) -> str:
        k = op.kind
        if k in ("k", "u"):
            return f"{r.bits}\t{wt(r.witness)}\n" if r else "-\n"
        if k == "a":
            rows = "".join(f"{wt(x.x)}\t{x.k_bits}\t{x.q_mass}\t{x.gap}\n" for x in r.rows)
            return apriori.format_table(r.table) + rows + apriori.format_table(r.extended)
        if k == "d":
            return self.events_text(r[0])
        if k == "r":
            return f"{r.kind.value}\t{r.output}\t{r.bits_read}\n"
        return quotient_demo.format_gap_report(r)


# -- clamp -------------------------------------------------------------------

class Clamp(Workload):
    """The clamping loop, mixtures and out-of-order approximator reads on
    generated staircase CSV; no machine runs at all."""

    name = "clamp"
    # grid sizes per level: an odd count puts the median inside one level,
    # and the largest twice makes the slowest operations one group of two
    # a round; both keep the latency quantiles steady
    SIZES = (25, 28, 31, 34, 38, 45, 45)
    OVERFULL = (0.0, 0.1, 0.25, 0.5)

    def draw(self, rng, r: int) -> list[Op]:
        ops = []
        for level, size in enumerate(self.SIZES):
            c = r + level
            text, stairs = gen.staircase_csv(rng, size, self.OVERFULL[c % len(self.OVERFULL)])
            mix_size = 8 + c % 5
            comps = [gen.staircase_csv(rng, mix_size, self.OVERFULL[(c + i) % len(self.OVERFULL)])
                     for i in range(3 + c % 3)]
            probes = [(rng.randint(1, size), rng.randint(1, size), rng.randint(1, size + 4))
                      for _ in range(100)]
            ops.append(self.op("clamp", text=text, stairs=stairs, K=size, comps=comps,
                               Km=mix_size, y=gen.word(rng, c % 3), probes=probes))
        return ops

    def run(self, op):
        phi = semimeasures.load_approximator_csv(op.text)
        plain = semimeasures.normalize(phi, op.K)
        per_column = semimeasures.normalize(phi, op.K, per_column=True)
        comps = [semimeasures.load_approximator_csv(text, name=f"c{i}")
                 for i, (text, _) in enumerate(op.comps)]
        spec = semimeasures.MixtureSpec(tuple(zip(semimeasures.bar_weight_exponents(len(comps)), comps)))
        mix = semimeasures.mixture(spec, op.Km)
        domain = [(x, y) for x in range(1, op.Km + 1) for y in range(1, op.Km + 1)]
        dominated = semimeasures.check_domination(mix, spec, domain)
        gap = sf_coder.coding_gap_report_mixture(spec, op.y, op.Km)
        probes = [phi(x, y, k) for x, y, k in op.probes]
        return Op(plain=plain, per_column=per_column, mix=mix, dominated=dominated, gap=gap,
                  probes=probes, exponents=[e for e, _ in spec.components])

    def check(self, op, r) -> list[str]:
        errs = []
        for label, table, per_col in (("normalize", r.plain, False), ("per_column", r.per_column, True)):
            values, frozen = clamp_referee(op.stairs, op.K, per_col)
            if {xy: frac(v) for xy, v in table.values.items()} != values or set(table.frozen_y) != frozen:
                errs.append(f"{label}: table differs from the clamping referee")
            if any(s > 1 for s in column_sums(values).values()):
                errs.append(f"{label}: a column sums past 1")
        mix: dict = {}
        for e, (_, stairs) in zip(r.exponents, op.comps):
            for xy, v in clamp_referee(stairs, op.Km, False)[0].items():
                mix[xy] = mix.get(xy, 0) + v / (1 << e)
        if {xy: frac(v) for xy, v in r.mix.values.items()} != mix:
            errs.append("mixture: differs from the weighted referee tables")
        if any(s > 1 for s in column_sums(mix).values()):
            errs.append("mixture: a column sums past 1")
        if not r.dominated:
            errs.append("check_domination: mixture does not dominate")
        y = word_pos(op.y)
        support = {nat_word(x - 1) for (x, yy), v in mix.items() if yy == y and v}
        if {row.x for row in r.gap} != support:
            errs.append("gap report: symbols differ from the mixture's column")
        for row in r.gap:
            sup = mix[(word_pos(row.x), y)]
            if frac(row.m_sup) != sup or row.neg_log_m_ceil != ceil_log2_inv(sup):
                errs.append(f"gap report: mass of {row.x!r} wrong")
            if row.code_len is None or row.code_len > ceil_log2_inv(sup) + 3 or not row.code_bound_ok:
                errs.append(f"gap report: codeword of {row.x!r} misses its bound")
        for (x, yy, k), v in zip(op.probes, r.probes):
            if frac(v) != gen.stair_value(op.stairs.get((x, yy), ()), k):
                errs.append(f"probe ({x}, {yy}, {k}) reads a wrong value")
                break
        return errs

    def canon(self, op, r) -> str:
        lines = []
        for table in (r.plain, r.per_column, r.mix):
            lines += [f"{x}\t{y}\t{table.values[(x, y)]}" for x, y in table.support()]
            lines.append("frozen\t" + ",".join(map(str, sorted(table.frozen_y))))
        lines += [f"{row.x}\t{row.m_sup}\t{row.code_len}" for row in r.gap]
        lines += [str(v) for v in r.probes]
        return "\n".join(lines) + "\n"


def column_sums(values) -> dict[int, Fraction]:
    sums: dict[int, Fraction] = {}
    for (_, y), v in values.items():
        sums[y] = sums.get(y, 0) + v
    return sums


def clamp_referee(stairs, max_stage: int, per_column: bool):
    """The clamping loop's documented semantics, recomputed from the
    generator's staircases: a stage's sample is taken only if no column
    of it sums past 1 (per column: only columns that never did update)."""
    values: dict[tuple[int, int], Fraction] = {}
    violated: set[int] = set()
    for k in range(1, max_stage + 1):
        seen = {xy: gen.stair_value(steps, k) for xy, steps in stairs.items() if max(xy) <= k}
        bad = {y for y, s in column_sums(seen).items() if s > 1}
        violated |= bad
        if per_column or not bad:
            for xy, v in seen.items():
                if per_column and xy[1] in violated:
                    continue
                if v:
                    values[xy] = v
                else:
                    values.pop(xy, None)
    return values, violated


WORKLOADS = {w.name: w for w in (Codebook, Search, Clamp)}
