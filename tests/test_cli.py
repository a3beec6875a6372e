import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgroups import CapExceededError, core
from cpgroups.cli import load_group_file, main
from cpgroups.core import BLOCK_ENTRIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_s3_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "symmetric:3")
        assert code == 0
        assert "cp3: true" in out
        assert "cp2: false" in out

    def test_z6_witness_orders(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cyclic:6", "--format", "records")
        assert code == 0
        assert "cp3=false" in out
        assert "cp3_witness_orders=3,2,6" in out

    def test_q8_in_cp3(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "dicyclic:8")
        assert code == 0
        assert "cp3: true" in out

    def test_audit_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "symmetric:3", "--audit-triangle")
        assert code == 0
        assert "(audited)" in out

    def test_unresolvable_spec_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "nosuchthing:9")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec", ["cyclic:1_0", "cyclic:+4", "cyclic:\u0663", "elemab:8"])
    def test_malformed_spec_exit_2_without_a_traceback(self, capsys, spec):
        # int() alone reads the first three as cyclic:10, cyclic:4 and cyclic:3
        code, out, err = run_cli(capsys, "analyze", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_cap_exceeded_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "cyclic:20000")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize(
        "spec",
        [
            "cyclic:10001",
            "cyclic:1000000000000",
            "dihedral:10002",
            "dicyclic:10004",
            "elemab:2^14",
            "elemab:17^4",
            "product:cyclic:9999,cyclic:9999",
        ],
    )
    def test_formula_families_over_the_element_cap_exit_3(self, capsys, spec):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert code == 3
        assert out == ""
        assert "cap" in err and "ELEMENT_CAP=10000" in err

    @pytest.mark.parametrize("spec", ["alternating:3000000", "symmetric:100000", "elemab:2^100000"])
    def test_orders_too_long_to_print_exit_3_at_once(self, capsys, spec):
        # the cap is decided without forming the whole order, and an order
        # with more digits than Python converts to a string is not printed
        start = time.monotonic()
        code, out, err = run_cli(capsys, "analyze", spec)
        assert time.monotonic() - start < 5
        assert (code, out) == (3, "")
        digits = sys.get_int_max_str_digits()
        assert err == f"error: order of more than {digits} digits exceeds the element cap ELEMENT_CAP=10000\n"

    def test_elemab_of_a_huge_prime_exit_3_at_once(self, capsys):
        # the cap comes before the primality test, whose trial division on a
        # p of 19 digits would run for minutes
        start = time.monotonic()
        code, out, err = run_cli(capsys, "analyze", "elemab:1000000000000000003^1")
        assert time.monotonic() - start < 1
        assert (code, out) == (3, "")
        assert err == "error: order 1000000000000000003 exceeds the element cap ELEMENT_CAP=10000\n"

    def test_elemab_of_p_1_exit_2_at_once(self, capsys):
        # the powers of 1 never reach the cap, so p = 1 is refused as not prime
        start = time.monotonic()
        code, out, err = run_cli(capsys, "analyze", "elemab:1^1000000000000")
        assert time.monotonic() - start < 1
        assert (code, out, err) == (2, "", "error: 1 is not prime\n")

    @pytest.mark.parametrize("spec,order", [("symmetric:8", 40320), ("elemab:99991^5", 99991**5)])
    def test_printable_orders_over_the_element_cap_are_printed(self, capsys, spec, order):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert (code, out) == (3, "")
        assert err == f"error: order {order} exceeds the element cap ELEMENT_CAP=10000\n"

    @pytest.mark.parametrize("spec", ["cyclic:10000", "dihedral:10000", "dicyclic:4100"])
    def test_formula_families_above_the_table_cap_run(self, capsys, spec):
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "records")
        assert code == 0
        assert out.splitlines()[:2] == [f"name={spec}", f"order={spec.split(':')[1]}"]

    def test_symmetric_7_on_the_permutation_backend(self, capsys):
        # order 5040, above the table and distance-matrix caps: classified
        # from its order table and pair scans alone
        code, out, _ = run_cli(capsys, "analyze", "symmetric:7", "--format", "records")
        assert code == 0
        records = dict(line.split("=", 1) for line in out.splitlines())
        code, ref, _ = run_cli(capsys, "analyze", "psl2:17", "--format", "records")
        assert code == 0
        # psl2:17 is in cp, so its report has no cp witness lines
        keys = [key for key in records if not key.startswith("cp_witness_")]
        assert keys == [line.split("=", 1)[0] for line in ref.splitlines()]
        assert records["order"] == "5040"
        assert (records["metric_identity"], records["metric_symmetry"]) == ("true", "true")
        expected = {
            "cp": ("(2 3 4 5 6 7)", "(2 3 4 5 6 7)", "6,6,6"),
            "cp2": ("(1 2)", "(2 3 4 5 6 7)", "2,6,7"),
            "cp3": ("(1 2)", "(1 3 5 7 2 4 6)", "2,7,12"),
        }
        for tag, (a, b, orders) in expected.items():
            assert records[tag] == "false"
            got = tuple(records[f"{tag}_witness_{field}"] for field in ("a", "b", "orders"))
            assert got == (a, b, orders)

    @pytest.mark.parametrize(
        "spec,golden",
        [
            ("psl2:17", "perfbench/golden/analyze-psl2-17.records"),
            ("alternating:7", "perfbench/golden/analyze-alternating-7.records"),
            ("symmetric:7", "tests/golden/analyze-symmetric-7.records"),
        ],
    )
    def test_permutation_group_records_match_the_goldens(self, capsys, spec, golden):
        # the files CI compares in its "Permutation-group reports" step
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "records")
        assert code == 0
        assert out == (Path(__file__).parent.parent / golden).read_text()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "analyze", "cyclic:4", "--output", str(target))
        assert code == 0
        assert out == ""
        assert "cp3: true" in target.read_text()


class TestFileInputs:
    def test_cayley_file(self, capsys, tmp_path):
        path = tmp_path / "z2.table"
        path.write_text("2\n0 1\n1 0\n")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "order: 2" in out

    def test_generator_file(self, capsys, tmp_path):
        path = tmp_path / "s4.gens"
        path.write_text("degree: 4\n(1 2)\n(1 2 3 4)\n")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "order: 24" in out
        assert "cp3: false" in out

    @pytest.mark.parametrize("degree", [65536, 70000])
    def test_generator_file_of_large_degree(self, capsys, tmp_path, degree):
        # points above 65535 need more than 16 bits
        path = tmp_path / "transposition.gens"
        path.write_text(f"degree: {degree}\n(1 2)\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
        assert code == 0
        assert "order=2" in out.splitlines()

    @pytest.mark.parametrize("degree", [BLOCK_ENTRIES + 1, 99999999999])
    def test_generator_file_wider_than_a_block_exit_3_at_once(self, capsys, tmp_path, degree):
        # refused before a permutation of that many points is built
        path = tmp_path / "transposition.gens"
        path.write_text(f"degree: {degree}\n(1 2)\n")
        start = time.monotonic()
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert time.monotonic() - start < 5
        assert (code, out) == (3, "")
        assert f"degree {degree} exceeds BLOCK_ENTRIES={BLOCK_ENTRIES}, the width of one block" in err

    @pytest.mark.parametrize("cap,code", [(124, 0), (123, 3)])
    def test_generator_file_over_the_image_cap_exit_3(self, capsys, tmp_path, monkeypatch, cap, code):
        # S4 from (1 2) and (1 2 3 4): the largest check comes with 21
        # elements held and a level of 5 to multiply by the two generators,
        # (21 + 10) * 4 = 124 images
        monkeypatch.setattr(core, "IMAGE_ENTRIES", cap)
        path = tmp_path / "s4.gens"
        path.write_text("degree: 4\n(1 2)\n(1 2 3 4)\n")
        got, out, err = run_cli(capsys, "analyze", str(path))
        assert got == code
        if code == 3:
            assert out == ""
            assert "closure needs more than IMAGE_ENTRIES=123 permutation images" in err

    def test_malformed_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.table"
        path.write_text("2\n0 1\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_table_entry_too_large_for_int64_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.table"
        path.write_text("2\n0 99999999999999999999\n1 0\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("2\n0 1\n+0\n", "table row 2 has 1 entries, expected 2"),
            ("2\n0 1_0\n1 0\n", "table row 1 has an entry that is not an integer or is out of range"),
        ],
    )
    def test_ragged_or_unreadable_row_exit_2_naming_file_and_row(self, capsys, tmp_path, text, fault):
        path = tmp_path / "ragged.table"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {fault}\n"

    def test_table_file_is_parsed_into_the_array_the_group_keeps(self, tmp_path):
        # one int32 table held: no list of row strings and no int64 copy
        # beside it (the int64 copy alone is twice the table)
        n = 2048
        path = tmp_path / "cyclic-2048.table"
        tokens = [str(k) for k in range(n)]
        path.write_text(_table_text(n, [tokens[i:] + tokens[:i] for i in range(n)]))
        tracemalloc.start()
        try:
            g = load_group_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.table.dtype == np.int32 and g.order == n
        assert peak < 3 * g.table.nbytes

    def test_non_associative_table_exit_2(self, capsys, tmp_path):
        # Z5 with two entries of row 1 swapped: identity and inverses survive
        rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
        path = tmp_path / "mutant.table"
        path.write_text(_table_text(5, [[str(x) for x in row] for row in rows]))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "associative" in err
        assert "Traceback" not in err

    def test_table_of_513_rows(self, capsys, tmp_path):
        n = 513
        path = tmp_path / "cyclic-513.table"
        path.write_text(_table_text(n, [[str((i + j) % n) for j in range(n)] for i in range(n)]))
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
        expected = run_cli(capsys, "analyze", "cyclic:513", "--format", "records")[1]
        assert code == 0
        # the same records and witnesses, but for the name line and the
        # labels: element k of a table is g<k>, of cyclic:513 a^k
        out = re.sub(r"\bg(\d+)", lambda m: "a" if m[1] == "1" else f"a^{m[1]}", out)
        assert out.splitlines()[1:] == expected.splitlines()[1:]

    def test_table_over_the_table_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        # 4097 short rows: refused on the header before any entry is parsed
        monkeypatch.setattr(np, "loadtxt", lambda *_, **__: pytest.fail("the rows were parsed"))
        path = tmp_path / "huge.table"
        path.write_text(_table_text(4097, [["0"]] * 4097))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (3, "")
        assert "order 4097 exceeds the Cayley-table cap TABLE_LIMIT=4096" in err

    def test_empty_table_exit_2_without_a_warning(self, capsys, tmp_path):
        path = tmp_path / "empty.table"
        path.write_text("0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "no rows" in err

    @pytest.mark.parametrize(
        "header,fault",
        [
            ("x", "header 'x' is neither a table order in digits nor 'degree: k'"),
            ("+3", "header '+3' is neither a table order in digits nor 'degree: k'"),
            ("degree: x", "header 'degree: x' needs a degree of at least 1 in digits"),
            ("degree:", "header 'degree:' needs a degree of at least 1 in digits"),
            ("degree: 0", "header 'degree: 0' needs a degree of at least 1 in digits"),
            ("degree: 1_0", "header 'degree: 1_0' needs a degree of at least 1 in digits"),
        ],
    )
    def test_bad_header_exit_2_naming_file_and_header(self, capsys, tmp_path, header, fault):
        path = tmp_path / "bad-header.txt"
        path.write_text(f"{header}\n(1 2)\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {fault}\n"

    def test_bad_generator_word_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("degree: 3\n(1 9)\n")
        code, _, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2


# Loader inputs: arbitrary text, and text shaped like the two file formats
# with small orders and degrees (at most S5 and a 5 x 5 table, so every
# accepted file is analyzed within the caps and exits 0)
_entry = st.one_of(
    st.integers(min_value=-1, max_value=5).map(str),
    st.sampled_from(["x", "1.5", "", "99999999999999999999"]),
)


def _table_text(n: int, rows: list[list[str]]) -> str:
    return "\n".join([str(n)] + [" ".join(row) for row in rows])


_square_table = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: _table_text(n, rows)
    )
)
_ragged_table = st.builds(
    _table_text, st.integers(min_value=-1, max_value=5), st.lists(st.lists(_entry, max_size=6), max_size=6)
)
_generator_file = st.builds(
    lambda degree, words: "\n".join([f"degree: {degree}"] + words),
    st.integers(min_value=-1, max_value=5),
    st.lists(st.text(alphabet="()0123456789 ,-x", max_size=14), max_size=4),
)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _square_table, _ragged_table, _generator_file))
    def test_any_file_exits_0_or_2_without_a_traceback(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "group.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", path])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")


class TestClassify:
    def test_flags_for_order_8(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--max-order", "8", "--format", "records")
        assert code == 0
        rows = {line.split()[0].split("=")[1]: line for line in out.splitlines()}
        assert "cp3=true" in rows["dicyclic:8"]
        assert "cp3=false" in rows["dihedral:8"]

    def test_s4_row_at_24(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--max-order", "24", "--format", "records")
        assert code == 0
        s4_row = [line for line in out.splitlines() if line.startswith("name=symmetric:4 ")][0]
        assert "cp3=false" in s4_row and "cp=true" in s4_row

    def test_max_order_1(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--max-order", "1", "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        for flag in ("cp=true", "cp2=true", "cp3=true", "solvable=true"):
            assert flag in lines[0]

    def test_max_order_over_the_element_cap_exit_3_before_building(self, capsys, monkeypatch):
        from cpgroups import catalog

        def refuse(*args, **kwargs):
            raise AssertionError("a group was built")

        monkeypatch.setattr(catalog, "group_from_spec", refuse)  # every catalog entry builds through it
        code, out, err = run_cli(capsys, "classify", "--max-order", "10001")
        assert code == 3
        assert out == ""
        assert "cap" in err and "ELEMENT_CAP=10000" in err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_max_order_below_one_exit_2(self, capsys, bound, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--max-order", bound, "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-order: must be at least 1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bound", ["1_0", "+4", "٣", "x"])
    def test_max_order_not_in_ascii_digits_exit_2(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--max-order", bound])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-order: invalid positive_int value: {bound!r}" in captured.err

    def test_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(capsys, "classify", "--max-order", "16", "--output", str(a))[0] == 0
        assert run_cli(capsys, "classify", "--max-order", "16", "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    @pytest.mark.parametrize("target", ["theorem1", "theorem4", "subgroup-closure"])
    def test_max_order_over_the_element_cap_exit_3_before_building(self, target, capsys, monkeypatch):
        from cpgroups import catalog

        def refuse(*args, **kwargs):
            raise AssertionError("a group was built")

        monkeypatch.setattr(catalog, "group_from_spec", refuse)  # every catalog entry builds through it
        code, out, err = run_cli(capsys, "verify", target, "--max-order", "10001")
        assert code == 3
        assert out == ""
        assert "cap" in err and "ELEMENT_CAP=10000" in err

    @pytest.mark.parametrize("target", ["theorem1", "theorem4"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_order_below_one_exit_2(self, capsys, target, bound):
        with pytest.raises(SystemExit) as exc:
            main(["verify", target, "--max-order", bound])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-order: must be at least 1" in captured.err

    def test_theorem1_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--max-order", "60")
        assert code == 0
        assert "PASS theorem1" in out

    def test_theorem3_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem3", "--max-order", "64")
        assert code == 0
        assert "PASS theorem3" in out

    def test_theorem4_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem4", "--max-order", "200")
        assert code == 0
        assert "psl2:4: not in cp3" in out
        psl4_line = [ln for ln in out.splitlines() if ln.startswith("psl2:4")][0]
        assert "o(ab)=5" in psl4_line
        assert "PASS theorem4" in out

    def test_conjecture5_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "conjecture5", "--max-order", "30")
        assert code == 0
        assert "counterexamples: 0" in out

    def test_subgroup_closure_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "subgroup-closure", "--max-order", "30")
        assert code == 0
        assert "0 violations" in out

    def test_problem1_marked_non_conclusive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "problem1", "--max-order", "24")
        assert code == 0
        assert "NON-CONCLUSIVE" in out

    def test_help_gives_the_targets_and_default_bounds_in_table_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert (
            "Default bounds: theorem1=200, theorem2=200, theorem3=256, theorem4=2500,"
            " conjecture5=200, subgroup-closure=200, problem1=60\n"
        ) in out
        assert "{theorem1,theorem2,theorem3,theorem4,conjecture5,subgroup-closure,problem1}" in out

    def test_run_verify_names_the_targets_for_an_unknown_one(self):
        from cpgroups.verify import run_verify

        names = "('theorem1', 'theorem2', 'theorem3', 'theorem4', 'conjecture5', 'subgroup-closure', 'problem1')"
        with pytest.raises(ValueError, match=re.escape(f"unknown verify target 'theorem9'; choose from {names}")):
            run_verify("theorem9")

    def test_run_verify_gives_the_subgroup_cap_to_the_enumerating_targets(self):
        from cpgroups.verify import run_verify

        for target in ("theorem2", "subgroup-closure", "problem1"):
            assert run_verify(target, max_order=8).passed
            with pytest.raises(CapExceededError, match="subgroup-enumeration cap 4"):
                run_verify(target, max_order=8, subgroup_cap=4)
        for target in ("theorem1", "theorem3", "theorem4", "conjecture5"):
            assert run_verify(target, max_order=8, subgroup_cap=4).passed

    def test_unknown_target_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "theorem9"])
        assert err.value.code == 2

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize(
        "command,option",
        [
            (["verify", "problem1"], "--cap-subgroups"),
            (["analyze", "cyclic:6"], "--cap-elements"),
            (["distance-matrix", "cyclic:6"], "--cap-elements"),
        ],
    )
    def test_cap_below_one_exit_2(self, capsys, command, option, cap):
        with pytest.raises(SystemExit) as exc:
            main(command + [option, cap])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option}: must be at least 1, got {cap}" in captured.err
        assert "Traceback" not in captured.err

    def test_failed_target_exit_1(self, capsys, monkeypatch):
        from cpgroups import cli
        from cpgroups.verify import VerifyResult

        monkeypatch.setattr(
            cli,
            "run_verify",
            lambda *a, **k: VerifyResult(target="theorem1", passed=False, lines=("FAIL x",)),
        )
        assert main(["verify", "theorem1"]) == 1


class TestDistanceMatrix:
    def test_cyclic_2(self, capsys):
        code, out, _ = run_cli(capsys, "distance-matrix", "cyclic:2")
        assert code == 0
        assert out.splitlines() == [",e,a", "e,0,1", "a,1,0"]

    def test_cyclic_1(self, capsys):
        code, out, _ = run_cli(capsys, "distance-matrix", "cyclic:1")
        assert code == 0
        assert out.splitlines() == [",e", "e,0"]

    def test_s3_entries(self, capsys):
        code, out, _ = run_cli(capsys, "distance-matrix", "symmetric:3")
        assert code == 0
        for row in out.splitlines()[1:]:
            for tok in row.split(",")[1:]:
                assert tok in {"0", "1", "2"}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "m.csv"
        code, out, _ = run_cli(capsys, "distance-matrix", "cyclic:3", "--output", str(target))
        assert code == 0
        assert target.read_text().startswith(",e,a,a^2")


class TestClosedStdout:
    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # about 1 MB of CSV, far more than a pipe buffers, so the writer is
        # still writing when the reader closes its end after one line
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cpgroups.cli", "distance-matrix", "cyclic:500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.startswith(b",e,a,a^2,")
        assert err == b""
