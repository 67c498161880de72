"""End-to-end runs of the command line surface via subprocess."""

import json
import subprocess
import sys

import pytest


def kolmo(*argv, stdin: str = "", check: bool = True):
    proc = subprocess.run(
        [sys.executable, "-m", "kolmo.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"kolmo {' '.join(argv)} failed:\n{proc.stderr}")
    return proc


class TestCodes:
    def test_kraft_complete_code(self):
        proc = kolmo("codes", "kraft", stdin="0\n10\n11\n")
        assert proc.stdout == "1/2^0\n"
        assert proc.returncode == 0

    def test_bar_roundtrip(self):
        enc = kolmo("codes", "bar", stdin="101\n").stdout.strip()
        assert enc == "1110101"
        dec = kolmo("codes", "bar", "--decode", stdin=enc + "\n").stdout
        assert dec == "101\t7\n"

    def test_pair(self):
        out = kolmo("codes", "pair", stdin="101\n0\n").stdout
        assert out == "110001010\n"
        back = kolmo("codes", "pair", "--decode", stdin=out).stdout
        assert back == "101\t0\n"

    def test_prefix_free_gate(self):
        proc = kolmo("codes", "kraft", "--require-prefix-free", stdin="0\n01\n", check=False)
        assert proc.returncode == 1


class TestVm:
    def test_run_fixture(self):
        out = kolmo("vm", "run", "-m", "copy2", "-p", "10").stdout
        assert out == "halted\toutput=10\tbits_read=2\n"

    def test_run_universal(self):
        out = kolmo("vm", "run", "--universal", "-p", "1110100").stdout   # <position 11, empty>
        assert out.startswith("halted")

    def test_k_universal(self):
        out = kolmo("k", "--universal", "--x", "-", "-L", "7", "-S", "60").stdout
        lines = out.splitlines()
        assert lines[1].split("\t")[2].isdigit()   # a universal witness exists

    def test_enumerate_descriptions(self):
        out = kolmo("vm", "enumerate", "--count", "9", "--descriptions").stdout.splitlines()
        assert out[0] == "1\t000"
        assert out[8] == "9\t" + "0" * 23

    def test_enumerate_position_zero_is_an_error(self):
        proc = kolmo("vm", "enumerate", "--start", "0", "--descriptions", check=False)
        assert proc.returncode == 1
        assert "machine positions start at 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_dovetail_schedulers_byte_identical(self):
        a = kolmo("vm", "dovetail", "-m", "ident", "--max-stage", "200").stdout
        b = kolmo("vm", "dovetail", "-m", "ident", "--max-stage", "200", "--scheduler", "staged").stdout
        assert a == b
        assert a.splitlines()[0] == "stage\tprogram\toutput"

    def test_unknown_machine(self):
        proc = kolmo("vm", "run", "-m", "nosuch", "-p", "0", check=False)
        assert proc.returncode != 0

    def test_bad_machine_token_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.tm"
        bad.write_text("states 1\n0 - X 0 -> H 0 S S . .\n")
        proc = kolmo("vm", "run", "-m", str(bad), "-p", "0", check=False)
        assert proc.returncode in (1, 2)
        assert "line 2: bad entry" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = kolmo("codes", "kraft", "--nonsense", stdin="0\n", check=False)
        assert proc.returncode == 2

    def test_unknown_subcommand_exits_2(self):
        proc = kolmo("frobnicate", check=False)
        assert proc.returncode == 2


class TestPipelines:
    def test_code_build_encode_decode_roundtrip(self, tmp_path):
        book = tmp_path / "book.tsv"
        kolmo("code", "build", "-m", "echo1", "--max-stage", "40", "-L", "6", "--book", str(book))
        word = kolmo("code", "encode", "--book", str(book), "--x", "1").stdout.strip()
        assert word
        sym = kolmo("code", "decode", "--book", str(book), "-p", word).stdout.strip()
        assert sym == "1"

    def test_emitted_decoder_machine_agrees(self, tmp_path):
        book = tmp_path / "book.tsv"
        decoder = tmp_path / "decoder.tm"
        kolmo("code", "build", "-m", "echo1", "--max-stage", "40", "-L", "6",
              "--book", str(book), "--emit-machine", str(decoder))
        word = kolmo("code", "encode", "--book", str(book), "--x", "0").stdout.strip()
        out = kolmo("vm", "run", "-m", str(decoder), "-p", word).stdout
        assert out.startswith("halted\toutput=0")

    def test_apriori_table_persist_and_extend(self, tmp_path):
        table = tmp_path / "t.tsv"
        kolmo("apriori", "-m", "ident", "--max-stage", "50", "-L", "6", "--table", str(table))
        first = table.read_text()
        kolmo("apriori", "-m", "ident", "--max-stage", "200", "-L", "6", "--table", str(table))
        second = table.read_text()
        assert "# stage\t200" in second
        assert first != second

    def test_gap_report(self):
        out = kolmo("code", "gap", "-m", "copy2", "--max-stage", "60", "-L", "6", "-S", "60").stdout
        lines = out.splitlines()
        assert lines[0].startswith("x\t")
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith("\t1\t1")   # both checks pass

    def test_semimeasure_mixture_and_dominate(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,1,1,1/2^0\n")
        (tmp_path / "b.csv").write_text("2,1,1,1/2^0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "components": [
                {"exponent": 1, "csv": "a.csv"},
                {"exponent": 1, "csv": "b.csv"},
            ]
        }))
        out = kolmo("semimeasure", "mixture", "--spec", str(spec), "--max-stage", "3").stdout
        assert "1\t1\t1/2^1" in out and "2\t1\t1/2^1" in out
        proc = kolmo("semimeasure", "dominate", "--spec", str(spec), "--max-stage", "3")
        assert proc.stdout == "dominates\t1\n"

    def test_semimeasure_normalize_without_phi(self):
        proc = kolmo("semimeasure", "normalize", "--max-stage", "3", check=False)
        assert proc.returncode in (1, 2)
        assert "needs --phi" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_semimeasure_mixture_and_dominate_without_spec(self):
        for op in ("mixture", "dominate"):
            proc = kolmo("semimeasure", op, check=False)
            assert proc.returncode in (1, 2)
            assert "needs --spec" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_semimeasure_spec_without_components(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"parts": []}))
        proc = kolmo("semimeasure", "mixture", "--spec", str(spec), check=False)
        assert proc.returncode in (1, 2)
        assert "components" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("exponent", [1.5, True, "1"])
    def test_semimeasure_spec_exponent_must_be_an_integer(self, tmp_path, exponent):
        # int() would read 1.5 and true as 1, a weight of 1/2
        (tmp_path / "a.csv").write_text("1,1,1,1/2^1\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"components": [
            {"exponent": 2, "csv": "a.csv"},
            {"exponent": exponent, "csv": "a.csv"},
        ]}))
        for op in ("mixture", "dominate"):
            proc = kolmo("semimeasure", op, "--spec", str(spec), "--max-stage", "3", check=False)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: {spec}: components[1]: exponent must be an integer, got {json.dumps(exponent)}\n"
            )

    def test_semimeasure_short_csv_row_names_its_line(self, tmp_path):
        phi = tmp_path / "short.csv"
        phi.write_text("# x,y,k,v\n1,1,1\n")
        proc = kolmo("semimeasure", "normalize", "--phi", str(phi), check=False)
        assert proc.returncode == 1
        assert "line 2: need x,y,k,num/2^exp" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_apriori_table_header_without_value(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("# machine\n")
        proc = kolmo("apriori", "-m", "ident", "--table", str(table), check=False)
        assert proc.returncode == 1
        assert "table header missing 'machine' value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_apriori_table_row_with_wrong_field_count(self, tmp_path):
        table = tmp_path / "t.tsv"
        kolmo("apriori", "-m", "ident", "--max-stage", "50", "-L", "6", "--table", str(table))
        table.write_text(table.read_text() + "0\t1/2^3\textra\n")
        lines = table.read_text().count("\n")
        proc = kolmo("apriori", "-m", "ident", "--table", str(table), check=False)
        assert proc.returncode == 1
        assert f"line {lines}: need x<TAB>mass" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_codebook_row_with_wrong_field_count(self, tmp_path):
        book = tmp_path / "book.tsv"
        book.write_text("# aux\t-\n0\t1\t0/2^0\n")
        proc = kolmo("code", "encode", "--book", str(book), "--x", "0", check=False)
        assert proc.returncode == 1
        assert "line 2: need symbol<TAB>codeword<TAB>lo<TAB>hi" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_apriori_table_header_needs_an_integer(self, tmp_path):
        table = tmp_path / "t.tsv"
        kolmo("apriori", "-m", "ident", "--max-stage", "50", "-L", "6", "--table", str(table))
        good = table.read_text()
        for key in ("stage", "length_bound"):
            line = next(l for l in good.splitlines() if l.startswith(f"# {key}\t"))
            table.write_text(good.replace(line, f"# {key}\tabc"))
            proc = kolmo("apriori", "-m", "ident", "--table", str(table), check=False)
            assert proc.returncode == 1
            assert f"table header '{key}' needs an integer, got 'abc'" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_demo_quotient_row_with_wrong_field_count(self, tmp_path):
        joint = tmp_path / "joint.tsv"
        joint.write_text("# x y mass\n0\t0\t1/2^1\n0\t1/2^2\n")
        proc = kolmo("demo", "quotient", "--joint", str(joint), "--x", "0", "--y", "0", check=False)
        assert proc.returncode == 1
        assert "line 3: need x<TAB>y<TAB>mass" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_demo_quotient_rejects_a_repeated_point(self, tmp_path):
        joint = tmp_path / "joint.tsv"
        joint.write_text("0\t0\t1/2^1\n1\t0\t1/2^2\n0\t0\t1/2^2\n")
        proc = kolmo("demo", "quotient", "--joint", str(joint), "--x", "0", "--y", "0", check=False)
        assert proc.returncode == 1
        assert "duplicate joint points" in proc.stderr
        assert proc.stdout == ""
        joint.write_text("0\t0\t1/2^1\n1\t0\t1/2^2\n")
        assert kolmo("demo", "quotient", "--joint", str(joint), "--x", "0", "--y", "0").stdout == "2/3\n"

    def test_demo_condition_set(self):
        out = kolmo(
            "demo", "condition-set", "-m", "ident", "--members", ",0",
            "--max-stage", "300", "-L", "7", "-S", "300",
        ).stdout
        assert out.splitlines()[0].startswith("set_size")
        assert len(out.splitlines()) == 3


class TestDeterminismAndManifest:
    def test_selftest_green_and_byte_identical(self):
        a = kolmo("selftest")
        b = kolmo("selftest")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[-1].startswith("selftest:")

    def test_selftest_fails_under_optimize(self):
        # python -O strips assert statements; the selftest must not
        # depend on them
        script = (
            "import sys; from kolmo import selftest; "
            "selftest._ENUM_PREFIX = ('111',); "
            "sys.exit(selftest.run_selftest(sys.stdout.write))"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "FAIL enumeration-frozen: standard enumeration drifted" in proc.stdout

    def test_manifest_written_and_stable(self, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        for m, o in ((m1, o1), (m2, o2)):
            kolmo("vm", "dovetail", "-m", "copy2", "--max-stage", "30",
                  "--manifest", str(m), "--output", str(o))
        d1, d2 = json.loads(m1.read_text()), json.loads(m2.read_text())
        assert d1["output_sha256"] == d2["output_sha256"]
        assert o1.read_bytes() == o2.read_bytes()
        assert d1["subcommand"] == "vm dovetail"
        assert d1["inputs"]["machine"] == d2["inputs"]["machine"]
