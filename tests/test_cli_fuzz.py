"""Mutation fuzzing of the command line, run in process through
``cli.main``: a README command with one token changed, or a command
reading a fixture machine, book, table, CSV, spec or joint file with a
few bytes changed, must end in exit code 0, 1 or 2 and raise nothing but
SystemExit.

Every run happens in a fresh directory holding the README's input files,
so flags such as ``--output`` or ``--book`` write there.  Integers put
into an argv are at most 64.  A length bound L lets a program search
visit about 2**L programs, so an argv whose length bound is above 16 is
not run: that is a long search, not a malformed input.

``cli.main`` reuses one parser for all these runs; the last test checks
that they left it as a fresh build would be.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from importlib import resources

from hypothesis import assume, given, settings, strategies as st

from kolmo import cli

README_ARGV = [
    ["codes", "kraft", "-i", "words.txt"],
    ["vm", "run", "-m", "copy2", "-p", "10"],
    ["vm", "enumerate", "--count", "9", "--descriptions"],
    ["vm", "dovetail", "-m", "ident", "--max-stage", "200", "--scheduler", "staged"],
    ["vm", "dovetail", "-m", "ident", "--max-stage", "200", "--scheduler", "shared-tree"],
    ["k", "-m", "ident", "--x", "10", "-L", "8", "-S", "200"],
    ["apriori", "-m", "twoway", "--max-stage", "100", "-L", "6", "--check-k"],
    ["code", "build", "-m", "echo1", "--max-stage", "40", "-L", "6", "--book", "out.tsv", "--emit-machine", "out.tm"],
    ["code", "encode", "--book", "book.tsv", "--x", "1"],
    ["code", "decode", "--book", "book.tsv", "-p", "01"],
    ["vm", "run", "-m", "dec.tm", "-p", "01"],
    ["code", "gap", "-m", "copy2", "--max-stage", "60", "-L", "6", "-S", "60"],
    ["demo", "quotient", "--joint", "joint.tsv", "--x", "0", "--y", "0"],
    ["demo", "condition-set", "-m", "ident", "--members", ",0", "--members", ",0,1,00"],
    ["selftest"],
]
TOKENS = sorted({token for argv in README_ARGV for token in argv} | {"-", "", "--aux", "--universal", "-o"})
LENGTH_FLAGS = ("-L", "--length-bound")

SPEC = json.dumps({"components": [{"exponent": 1, "csv": "a.csv"}, {"exponent": 3, "csv": "b.csv"}]})
CSV_A = "# x,y,k,value\n1,1,1,1/2^2\n2,1,3,1/2^1\n1,2,2,3/2^2\n3,2,4,1/2^3\n"
CSV_B = "1,1,2,1/2^1\n1,1,5,3/2^2\n2,3,1,1/2^0\n"
JOINT = "# x y mass\n0\t0\t1/2^2\n1\t0\t1/2^2\n0\t1\t1/2^3\n-\t0\t1/2^3\n"


def run_main(argv):
    """Exit code of ``cli.main(argv)``, with the README's words on stdin;
    any exception but SystemExit propagates.  A SystemExit with a message
    exits 1, as the interpreter would."""
    saved = sys.stdin
    sys.stdin = io.StringIO("0\n10\n11\n")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
    finally:
        sys.stdin = saved
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


@functools.cache
def readme_files() -> dict[str, str]:
    """The input files of the README commands, as ``code build`` and
    ``apriori`` write them."""
    with tempfile.TemporaryDirectory() as work, _inside(work):
        assert run_main(["code", "build", "-m", "echo1", "--max-stage", "40", "-L", "6",
                         "--book", "book.tsv", "--emit-machine", "dec.tm"]) == 0
        assert run_main(["apriori", "-m", "ident", "--max-stage", "50", "-L", "6", "--table", "table.tsv"]) == 0
        files = {name: open(name).read() for name in ("book.tsv", "dec.tm", "table.tsv")}
    files.update({
        "words.txt": "0\n10\n11\n", "joint.tsv": JOINT, "spec.json": SPEC, "a.csv": CSV_A, "b.csv": CSV_B,
        "copy2.tm": (resources.files("kolmo.fixtures") / "copy2.tm").read_text(),
        "twoway.tm": (resources.files("kolmo.fixtures") / "twoway.tm").read_text(),
    })
    return files


@contextlib.contextmanager
def _inside(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


# each mutated file with the commands that read it
READERS = {
    "copy2.tm": [["vm", "run", "-m", "copy2.tm", "-p", "10", "--budget", "64"],
                 ["code", "build", "-m", "copy2.tm", "--max-stage", "40", "-L", "6"]],
    "twoway.tm": [["apriori", "-m", "twoway.tm", "--max-stage", "64", "-L", "6"]],
    "dec.tm": [["vm", "run", "-m", "dec.tm", "-p", "01"]],
    "book.tsv": [["code", "encode", "--book", "book.tsv", "--x", "1"],
                 ["code", "decode", "--book", "book.tsv", "-p", "01"]],
    "table.tsv": [["apriori", "-m", "ident", "--max-stage", "50", "-L", "6", "--table", "table.tsv"]],
    "a.csv": [["semimeasure", "normalize", "--phi", "a.csv", "--max-stage", "8"],
              ["semimeasure", "mixture", "--spec", "spec.json", "--max-stage", "8", "--per-column"]],
    "spec.json": [["semimeasure", "mixture", "--spec", "spec.json", "--max-stage", "8"],
                  ["semimeasure", "dominate", "--spec", "spec.json", "--max-stage", "8"]],
    "joint.tsv": [["demo", "quotient", "--joint", "joint.tsv", "--x", "0", "--y", "0"]],
}


def run_in_fresh_dir(argv, files=None):
    with tempfile.TemporaryDirectory() as work, _inside(work):
        for name, content in (files or readme_files()).items():
            with open(name, "wb") as f:
                f.write(content if isinstance(content, bytes) else content.encode())
        return run_main(argv)


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(README_ARGV)))
    i = draw(st.integers(0, len(argv)))
    kind = draw(st.sampled_from(["token", "integer", "text", "delete", "insert"]))
    if kind == "delete":
        del argv[min(i, len(argv) - 1)]
    else:
        if kind == "token":
            new = draw(st.sampled_from(TOKENS))
        elif kind == "integer":
            new = str(draw(st.integers(-3, 64)))
        else:
            new = draw(st.text(alphabet="01-,.$^/aH ", max_size=6))
        if kind == "insert" or i == len(argv):
            argv.insert(i, new)
        else:
            argv[i] = new
    length_bounds = [argv[j + 1] for j, token in enumerate(argv[:-1]) if token in LENGTH_FLAGS]
    assume(all(not bound.isdigit() or int(bound) <= 16 for bound in length_bounds))
    return argv


@st.composite
def mutated_file(draw):
    name = draw(st.sampled_from(sorted(READERS)))
    data = bytearray(readme_files()[name].encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(b"0123456789-/^,\t\n #.*LRSH$a\xff" + bytes([0])))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "replace":
            data[pos] = byte
        else:
            del data[pos]
    argv = draw(st.sampled_from(READERS[name]))
    return name, bytes(data), argv


@settings(max_examples=200, deadline=None)
@given(mutated_argv())
def test_readme_command_with_one_token_mutated(argv):
    assert run_in_fresh_dir(argv) in (0, 1, 2), argv


@settings(max_examples=200, deadline=None)
@given(mutated_file())
def test_command_reading_a_mutated_file(case):
    name, data, argv = case
    assert run_in_fresh_dir(argv, {**readme_files(), name: data}) in (0, 1, 2), (name, data, argv)


def test_unmutated_commands_succeed():
    for argv in README_ARGV + [argv for readers in READERS.values() for argv in readers]:
        assert run_in_fresh_dir(argv) == 0, argv


def _parsers(parser, path=("kolmo",)):
    """(path, parser) for ``parser`` and every subparser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def _shape(parser):
    """What a parse or a help text reads off one parser."""
    actions = [(a.option_strings, a.dest, a.default, a.required, a.nargs, a.type, a.help)
               for a in parser._actions if not isinstance(a, argparse._SubParsersAction)]
    return parser.format_usage(), parser.format_help(), dict(parser._defaults), actions


def test_reused_parser_matches_a_fresh_build(monkeypatch):
    """Run after the fuzz tests above, which send their argvs through the
    same parser; the README argvs with each token deleted, an appended
    ``--probe`` and a few usage errors run here too, so the test also
    holds when run alone."""
    monkeypatch.setenv("COLUMNS", "80")
    others = [["demo", "condition-set", "-m", "ident", "--members", ",0", "--probe", "00", "--probe", "1"],
              ["--help"], ["--version"], ["vm", "run", "--help"], ["vm", "run", "-m", "copy2"],
              ["vm", "dovetail", "-m", "ident", "--scheduler", "nosuch"], ["k", "--x", "0", "-L", "x"],
              ["codes", "kraft", "--nonsense"], ["frobnicate"], []]
    deleted = [argv[:i] + argv[i + 1:] for argv in README_ARGV for i in range(len(argv))]
    for argv in README_ARGV + deleted + others:
        assert run_in_fresh_dir(argv) in (0, 1, 2), argv
    reused = {path: _shape(p) for path, p in _parsers(cli.build_parser())}
    fresh = {path: _shape(p) for path, p in _parsers(cli.build_parser.__wrapped__())}
    assert len(fresh) == 18   # kolmo, its 8 commands and the 9 subcommands of vm, code and demo
    assert reused == fresh
