"""Command line entry point.

Subcommands mirror the package layout: codes, vm, k, apriori,
semimeasure, code, demo, selftest.  All numeric output is canonical
dyadic text (``num/2^exp``) or an exact rational ``a/b``; no floats.
Words are written as 0/1 text with ``-`` standing for the empty word.

Every invocation can record a run manifest (``--manifest PATH``): a JSON
document with the tool version, the subcommand and its flags, the
digests of any machine or file inputs, and the digest of the produced
output.  Two runs with equal manifests produce byte-identical outputs.

``main(argv)`` may be called any number of times in one process.  It
builds the argument parser on its first call and reuses it after that:
each parse returns a fresh namespace, and help and error text are
formatted when they are printed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .apriori import approx_apriori, apriori_vs_k, format_table, load_table, save_table
from .codes import (
    bar_decode,
    bar_encode,
    is_prefix_free,
    kraft_sum,
    pair_strings,
    std_decode,
    std_encode,
    unpair_strings,
    word_text,
)
from .complexity import approx_k, approx_k_universal, soi_report
from .exact_arith import Dyadic
from .fixtures import fixture_names, load_fixture
from .prefix_vm import (
    dovetail,
    encode_description,
    enumerate_machines,
    machine_description,
    parse_machine_text,
    run,
    universal_run,
)
from .quotient_demo import ConditioningSet, format_gap_report, single_gap_report
from .selftest import run_selftest
from .semimeasures import (
    MixtureSpec,
    load_approximator_csv,
    mixture,
    normalize,
    check_domination,
)
from .sf_coder import (
    build_codebook,
    codebook_to_machine,
    coding_gap_report_machine,
    decode as book_decode,
    format_codebook,
    machine_mass_stream,
    parse_codebook,
)


def _word(text: str) -> str:
    if text in ("-", ""):
        return ""
    if text.strip("01"):
        raise SystemExit(f"error: not a binary word: {text!r}")
    return text


def _load_machine(spec: str):
    """fixture name | ASCII decimal enumeration position | path to a .tm file.

    Names are also resolved against $KOLMO_FIXTURES when it is set.
    """
    if spec.isascii() and spec.isdigit():   # str.isdigit alone takes '²' and '٣'
        return enumerate_machines(int(spec))
    if spec in fixture_names():
        return load_fixture(spec)
    candidates = [Path(spec)]
    extra_dir = os.environ.get("KOLMO_FIXTURES")
    if extra_dir:
        candidates += [Path(extra_dir) / spec, Path(extra_dir) / f"{spec}.tm"]
    for path in candidates:
        if path.is_file():
            return parse_machine_text(path.read_text(), name=path.stem)
    raise SystemExit(f"error: unknown machine {spec!r} (not a fixture, position, or file)")


class _Output:
    """Collects output text, then writes it to stdout or a file, plus an
    optional manifest with input/output digests."""

    def __init__(self, args, subcommand: str):
        self.args = args
        self.subcommand = subcommand
        self.chunks: list[str] = []
        self.input_digests: dict[str, str] = {}

    def write(self, text: str) -> None:
        self.chunks.append(text)

    def note_input(self, label: str, content: str) -> None:
        self.input_digests[label] = hashlib.sha256(content.encode()).hexdigest()

    def finish(self) -> None:
        text = "".join(self.chunks)
        out_path = getattr(self.args, "output", None)
        if out_path:
            Path(out_path).write_text(text)
        else:
            sys.stdout.write(text)
        manifest_path = getattr(self.args, "manifest", None)
        if manifest_path:
            flags = {
                k: v
                for k, v in sorted(vars(self.args).items())
                if k not in ("func", "manifest") and v is not None and not callable(v)
            }
            manifest = {
                "tool": "kolmo",
                "version": __version__,
                "subcommand": self.subcommand,
                "flags": flags,
                "inputs": dict(sorted(self.input_digests.items())),
                "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
            Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_words(args) -> list[str]:
    if args.input:
        text = Path(args.input).read_text()
    else:
        text = sys.stdin.read()
    return [_word(line.strip()) for line in text.splitlines() if line.strip()]


# -- codes ----------------------------------------------------------------

def cmd_codes(args) -> int:
    out = _Output(args, f"codes {args.op}")
    words = _read_words(args)
    out.note_input("words", "\n".join(words))
    if args.op == "bar":
        for w in words:
            if args.decode:
                word, used = bar_decode(w)
                out.write(f"{word_text(word)}\t{used}\n")
            else:
                out.write(bar_encode(w) + "\n")
    elif args.op == "std":
        for w in words:
            if args.decode:
                word, used = std_decode(w)
                out.write(f"{word_text(word)}\t{used}\n")
            else:
                out.write(std_encode(w) + "\n")
    elif args.op == "pair":
        if args.decode:
            for w in words:
                x, y = unpair_strings(w)
                out.write(f"{word_text(x)}\t{word_text(y)}\n")
        else:
            if len(words) % 2:
                raise SystemExit("error: pair needs an even number of words")
            for x, y in zip(words[::2], words[1::2]):
                out.write(pair_strings(x, y) + "\n")
    elif args.op == "kraft":
        total = kraft_sum(words)
        out.write(f"{total}\n")
        if args.require_prefix_free and not is_prefix_free(words):
            out.write("not prefix-free\n")
            out.finish()
            return 1
    out.finish()
    return 0


# -- vm ---------------------------------------------------------------------

def cmd_vm_run(args) -> int:
    out = _Output(args, "vm run")
    if args.universal:
        outcome = universal_run(_word(args.program), _word(args.aux), args.budget)
    else:
        m = _load_machine(args.machine)
        out.note_input("machine", m.digest())
        outcome = run(m, _word(args.program), _word(args.aux), args.budget)
    fields = [outcome.kind.value]
    if outcome.output is not None:
        fields.append(f"output={word_text(outcome.output)}")
    if outcome.bits_read is not None:
        fields.append(f"bits_read={outcome.bits_read}")
    out.write("\t".join(fields) + "\n")
    out.finish()
    return 0


def cmd_vm_enumerate(args) -> int:
    if args.count < 0:
        raise SystemExit(f"error: --count must not be negative, got {args.count}")
    out = _Output(args, "vm enumerate")
    for i in range(args.start, args.start + args.count):
        if args.descriptions:
            out.write(f"{i}\t{machine_description(i)}\n")
        else:
            m = enumerate_machines(i)
            out.write(f"{i}\t{m.n_states}\t{len(m.entries)}\t{encode_description(m)}\n")
    out.finish()
    return 0


def cmd_vm_dovetail(args) -> int:
    out = _Output(args, "vm dovetail")
    m = _load_machine(args.machine)
    out.note_input("machine", m.digest())
    events = dovetail(m, _word(args.aux), args.max_stage, args.scheduler)
    out.write("stage\tprogram\toutput\n")
    for e in events:
        out.write(f"{e.stage}\t{word_text(e.program)}\t{word_text(e.output)}\n")
    out.finish()
    return 0


# -- k ------------------------------------------------------------------------

def cmd_k(args) -> int:
    out = _Output(args, "k")
    x, y = _word(args.x), _word(args.y)
    if args.soi:
        m = _load_machine(args.machine)
        out.note_input("machine", m.digest())
        rep = soi_report(m, x, y, args.length_bound, args.step_bound)
        out.write("x\ty\tk_pair\tk_x\tk_y_given_xstar\tresidual\tx_star\tcomplete\n")
        out.write(
            "\t".join(
                [
                    word_text(rep.x),
                    word_text(rep.y),
                    str(rep.k_pair) if rep.k_pair is not None else "-",
                    str(rep.k_x) if rep.k_x is not None else "-",
                    str(rep.k_y_given_xstar) if rep.k_y_given_xstar is not None else "-",
                    str(rep.residual) if rep.residual is not None else "-",
                    word_text(rep.x_star) if rep.x_star is not None else "-",
                    "1" if rep.complete else "0",
                ]
            )
            + "\n"
        )
        out.finish()
        return 0
    if args.universal:
        est = approx_k_universal(x, y, args.length_bound, args.step_bound)
    else:
        m = _load_machine(args.machine)
        out.note_input("machine", m.digest())
        est = approx_k(m, x, y, args.length_bound, args.step_bound)
    out.write("x\ty\tbits\twitness\n")
    if est is None:
        out.write(f"{word_text(x)}\t{word_text(y)}\t-\t-\n")
    else:
        out.write(f"{word_text(x)}\t{word_text(y)}\t{est.bits}\t{word_text(est.witness)}\n")
    out.finish()
    return 0


# -- apriori --------------------------------------------------------------------

def cmd_apriori(args) -> int:
    out = _Output(args, "apriori")
    m = _load_machine(args.machine)
    out.note_input("machine", m.digest())
    aux = _word(args.aux)
    path = Path(args.table) if args.table else None
    if path and path.exists():
        from .apriori import extend_table

        old = load_table(path)
        if old.machine_digest != m.digest() or old.aux != aux:
            raise SystemExit("error: stored table has different provenance")
        if args.max_stage <= old.stage and args.length_bound <= old.length_bound:
            table = old   # the stored budgets already cover the request
        else:
            table = extend_table(old, m, args.max_stage, args.length_bound)
            save_table(table, path)
    else:
        table = approx_apriori(m, aux, args.max_stage, args.length_bound)
        if path:
            save_table(table, path)
    out.write(format_table(table))
    if args.check_k:
        ests = [
            e
            for e in (approx_k(m, x, table.aux, table.length_bound, args.step_bound) for x in sorted(table.entries, key=lambda w: (len(w), w)))
            if e
        ]
        out.write("x\tk_bits\tq_mass\tgap\tok\n")
        for row in apriori_vs_k(table, ests):
            out.write(f"{word_text(row.x)}\t{row.k_bits}\t{row.q_mass}\t{row.gap}\t{int(row.ok)}\n")
    out.finish()
    return 0


# -- semimeasure ------------------------------------------------------------------

def _load_spec(path: str, out: _Output) -> MixtureSpec:
    text = Path(path).read_text()
    out.note_input("spec", text)
    doc = json.loads(text)
    try:
        entries = [(entry["exponent"], str(entry["csv"])) for entry in doc["components"]]
    except (KeyError, TypeError) as err:
        raise SystemExit(f"error: {path}: need a components list of {{exponent, csv}} objects") from err
    for i, (e, _) in enumerate(entries):
        if type(e) is not int:   # not isinstance: JSON true loads as a bool, an int subclass
            raise SystemExit(f"error: {path}: components[{i}]: exponent must be an integer, got {json.dumps(e)}")
    base = Path(path).parent
    comps = [(e, load_approximator_csv((base / csv).read_text(), name=csv)) for e, csv in entries]
    return MixtureSpec(tuple(comps))


def cmd_semimeasure(args) -> int:
    out = _Output(args, f"semimeasure {args.op}")
    needed = "phi" if args.op == "normalize" else "spec"
    if getattr(args, needed) is None:
        raise SystemExit(f"error: semimeasure {args.op} needs --{needed}")
    if args.op == "normalize":
        text = Path(args.phi).read_text()
        out.note_input("phi", text)
        table = normalize(load_approximator_csv(text), args.max_stage, args.per_column)
    else:
        spec = _load_spec(args.spec, out)
        table = mixture(spec, args.max_stage, args.per_column)
        if args.op == "dominate":
            domain = [(x, y) for x in range(1, args.max_stage + 1) for y in range(1, args.max_stage + 1)]
            ok = check_domination(table, spec, domain, per_column=args.per_column)
            out.write("dominates\t%d\n" % int(ok))
            out.finish()
            return 0 if ok else 1
    out.write("x\ty\tmass\n")
    for (x, y) in table.support():
        out.write(f"{x}\t{y}\t{table.values[(x, y)]}\n")
    if table.frozen_y:
        out.write("# frozen_y\t" + ",".join(map(str, sorted(table.frozen_y))) + "\n")
    out.finish()
    return 0


# -- code -------------------------------------------------------------------------

def cmd_code(args) -> int:
    out = _Output(args, f"code {args.op}")
    if args.op == "build":
        from .codes import word_index

        m = _load_machine(args.machine)
        out.note_input("machine", m.digest())
        aux = _word(args.aux)
        phi = machine_mass_stream(m, args.max_stage, args.length_bound)
        max_x = max(phi.stairs(word_index(aux)), default=1)   # the last x of the support
        book = build_codebook(
            phi,
            aux,
            args.max_stage + max_x + 1,
            provenance=f"machine:{m.label}:{args.max_stage}:{args.length_bound}",
        )
        text = format_codebook(book)
        if args.book:
            Path(args.book).write_text(text)
        out.write(text)
        if args.emit_machine:
            from .prefix_vm import machine_to_text

            Path(args.emit_machine).write_text(machine_to_text(codebook_to_machine(book)))
        out.finish()
        return 0
    book_text = Path(args.book).read_text()
    out.note_input("book", book_text)
    book = parse_codebook(book_text)
    if args.op == "encode":
        word = book.codeword(_word(args.x))
        out.write((word_text(word) if word is not None else "-") + "\n")
        out.finish()
        return 0
    if args.op == "decode":
        sym = book_decode(book, _word(args.program), _word(args.aux))
        out.write((word_text(sym) if sym is not None else "-") + "\n")
        out.finish()
        return 0
    raise SystemExit(f"error: unknown code op {args.op}")


def cmd_code_gap(args) -> int:
    out = _Output(args, "code gap")
    m = _load_machine(args.machine)
    out.note_input("machine", m.digest())
    rows = coding_gap_report_machine(m, _word(args.aux), args.max_stage, args.length_bound, args.step_bound)
    out.write("x\tq_mass\tneg_log_q\tk_bits\tm_sup\tneg_log_m\tcode_len\tk_vs_q_ok\tcode_bound_ok\n")
    for r in rows:
        out.write(
            "\t".join(
                [
                    word_text(r.x),
                    str(r.q_mass) if r.q_mass is not None else "-",
                    str(r.neg_log_q_ceil) if r.neg_log_q_ceil is not None else "-",
                    str(r.k_bits) if r.k_bits is not None else "-",
                    str(r.m_sup),
                    str(r.neg_log_m_ceil),
                    str(r.code_len) if r.code_len is not None else "-",
                    "-" if r.k_vs_q_ok is None else str(int(r.k_vs_q_ok)),
                    "-" if r.code_bound_ok is None else str(int(r.code_bound_ok)),
                ]
            )
            + "\n"
        )
    out.finish()
    return 0


# -- demo -------------------------------------------------------------------------

def cmd_demo(args) -> int:
    out = _Output(args, f"demo {args.op}")
    if args.op == "quotient":
        from .quotient_demo import JointTable, quotient_conditional

        text = Path(args.joint).read_text()
        out.note_input("joint", text)
        rows = []
        for n, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"line {n}: need x<TAB>y<TAB>mass")
            rows.append(((_word(fields[0]), _word(fields[1])), Dyadic.parse(fields[2])))
        table = JointTable(tuple(sorted(rows, key=lambda row: row[0])))   # rejects repeated points
        q = quotient_conditional(table, _word(args.x), _word(args.y))
        out.write(f"{q.numerator}/{q.denominator}\n")
        out.finish()
        return 0
    if args.op == "condition-set":
        m = _load_machine(args.machine)
        out.note_input("machine", m.digest())
        sets = [
            ConditioningSet.of({_word(w) for w in group.split(",")})
            for group in args.members
        ]
        rows = single_gap_report(
            m, sets, args.max_stage, args.length_bound, args.step_bound,
            extra_probes=tuple(_word(p) for p in args.probe),
        )
        out.write(format_gap_report(rows))
        out.finish()
        return 0
    raise SystemExit(f"error: unknown demo op {args.op}")


# -- selftest ----------------------------------------------------------------------

def cmd_selftest(args) -> int:
    out = _Output(args, "selftest")
    code = run_selftest(out.write)
    out.finish()
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kolmo`` parser, built once per process and shared by every
    caller, so no caller may change it.  It holds no kolmo library
    function, only this module's ``cmd_*`` handlers, which look their
    library functions up when they run."""
    parser = argparse.ArgumentParser(prog="kolmo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kolmo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", help="write output here instead of stdout")
        p.add_argument("--manifest", help="write a JSON run manifest here")

    p = sub.add_parser("codes", help="self-delimiting codes and Kraft audits")
    p.add_argument("op", choices=["bar", "std", "pair", "kraft"])
    p.add_argument("--input", "-i", help="words file (one per line); default stdin")
    p.add_argument("--decode", action="store_true")
    p.add_argument("--require-prefix-free", action="store_true")
    common(p)
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("vm", help="prefix machine operations")
    vm_sub = p.add_subparsers(dest="vm_op", required=True)

    q = vm_sub.add_parser("run")
    q.add_argument("--machine", "-m", default="1")
    q.add_argument("--universal", action="store_true", help="treat the program as <position, program>")
    q.add_argument("--program", "-p", required=True)
    q.add_argument("--aux", default="-")
    q.add_argument("--budget", type=int, default=10_000)
    common(q)
    q.set_defaults(func=cmd_vm_run)

    q = vm_sub.add_parser("enumerate")
    q.add_argument("--start", type=int, default=1)
    q.add_argument("--count", type=int, default=20)
    q.add_argument("--descriptions", action="store_true")
    common(q)
    q.set_defaults(func=cmd_vm_enumerate)

    q = vm_sub.add_parser("dovetail")
    q.add_argument("--machine", "-m", required=True)
    q.add_argument("--aux", default="-")
    q.add_argument("--max-stage", type=int, default=64)
    q.add_argument("--scheduler", choices=["shared-tree", "staged"], default="shared-tree")
    common(q)
    q.set_defaults(func=cmd_vm_dovetail)

    p = sub.add_parser("k", help="shortest-program estimates")
    p.add_argument("--machine", "-m", default="1")
    p.add_argument("--universal", action="store_true")
    p.add_argument("--soi", action="store_true", help="information-symmetry report row")
    p.add_argument("--x", required=True)
    p.add_argument("--y", default="-")
    p.add_argument("-L", "--length-bound", type=int, default=10)
    p.add_argument("-S", "--step-bound", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_k)

    p = sub.add_parser("apriori", help="output-mass tables")
    p.add_argument("--machine", "-m", required=True)
    p.add_argument("--aux", default="-")
    p.add_argument("--max-stage", type=int, default=10_000)
    p.add_argument("-L", "--length-bound", type=int, default=10)
    p.add_argument("-S", "--step-bound", type=int, default=1000, help="for --check-k searches")
    p.add_argument("--table", help="persist the table here; extend if it exists")
    p.add_argument("--check-k", action="store_true", help="append the dominance report")
    common(p)
    p.set_defaults(func=cmd_apriori)

    p = sub.add_parser("semimeasure", help="clamping loop and mixtures")
    p.add_argument("op", choices=["normalize", "mixture", "dominate"])
    p.add_argument("--phi", help="approximator CSV (normalize)")
    p.add_argument("--spec", help="mixture spec JSON (mixture/dominate)")
    p.add_argument("--max-stage", type=int, default=8)
    p.add_argument("--per-column", action="store_true")
    common(p)
    p.set_defaults(func=cmd_semimeasure)

    p = sub.add_parser("code", help="interval codebooks")
    code_sub = p.add_subparsers(dest="code_op", required=True)

    q = code_sub.add_parser("build")
    q.add_argument("--machine", "-m", required=True)
    q.add_argument("--aux", default="-")
    q.add_argument("--max-stage", type=int, default=200)
    q.add_argument("-L", "--length-bound", type=int, default=8)
    q.add_argument("--book", help="also write the book here")
    q.add_argument("--emit-machine", help="compile the decoder onto the machine model")
    common(q)
    q.set_defaults(func=cmd_code, op="build")

    q = code_sub.add_parser("encode")
    q.add_argument("--book", required=True)
    q.add_argument("--x", required=True)
    common(q)
    q.set_defaults(func=cmd_code, op="encode")

    q = code_sub.add_parser("decode")
    q.add_argument("--book", required=True)
    q.add_argument("--program", "-p", required=True)
    q.add_argument("--aux", default="-")
    common(q)
    q.set_defaults(func=cmd_code, op="decode")

    q = code_sub.add_parser("gap")
    q.add_argument("--machine", "-m", required=True)
    q.add_argument("--aux", default="-")
    q.add_argument("--max-stage", type=int, default=200)
    q.add_argument("-L", "--length-bound", type=int, default=8)
    q.add_argument("-S", "--step-bound", type=int, default=1000)
    common(q)
    q.set_defaults(func=cmd_code_gap)

    p = sub.add_parser("demo", help="quotient-conditional reports")
    demo_sub = p.add_subparsers(dest="demo_op", required=True)

    q = demo_sub.add_parser("quotient")
    q.add_argument("--joint", required=True, help="TSV of x, y, mass")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    common(q)
    q.set_defaults(func=cmd_demo, op="quotient")

    q = demo_sub.add_parser("condition-set")
    q.add_argument("--machine", "-m", required=True)
    q.add_argument("--members", action="append", required=True, help="comma-separated member words; repeatable")
    q.add_argument("--probe", action="append", default=[], help="extra probe word outside the sets")
    q.add_argument("--max-stage", type=int, default=4096)
    q.add_argument("-L", "--length-bound", type=int, default=11)
    q.add_argument("-S", "--step-bound", type=int, default=1000)
    common(q)
    q.set_defaults(func=cmd_demo, op="condition-set")

    p = sub.add_parser("selftest", help="run the deterministic invariant battery")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as err:
        # domain errors (bad words, non-monotone streams, overweight
        # mixtures, provenance mismatches, unreadable files) are the
        # user's input, not a crash
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
