import gc
import io
import json
import sys
import warnings

import numpy as np
import pytest

from slocc.cli import (
    CANONICAL_NAMES,
    format_state_text,
    main,
    parse_state_json,
    parse_state_text,
)
from slocc.errors import StateFileError
from slocc.multiqubit import ghz_state
from slocc.states import make_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, state, label=None, name="state.txt"):
    path = tmp_path / name
    path.write_text(format_state_text(state, label=label))
    return str(path)


class TestStateFiles:
    def test_text_round_trip(self):
        state = make_state([2, 2, 2], np.arange(1, 9) * (1 + 1j))
        text = format_state_text(state, label="x")
        parsed, label = parse_state_text(text)
        assert label == "x"
        assert parsed.dims == state.dims
        assert np.allclose(parsed.amps, state.amps)

    def test_comments_and_blanks(self):
        parsed, label = parse_state_text(
            "# a Bell pair\nlabel: bell\ndims: 2 2\n\n1 0\n0 0 # inline\n0 0\n1 0\n"
        )
        assert label == "bell"
        assert np.array_equal(parsed.amps, [1, 0, 0, 1])

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(StateFileError, match="line 2"):
            parse_state_text("dims: 2 2\n1 0 0\n0 0\n0 0\n1 0\n")
        with pytest.raises(StateFileError, match="dims"):
            parse_state_text("1 0\n")
        with pytest.raises(StateFileError):
            parse_state_text("dims: 2 2\n1 0\n")

    def test_json_round_trip(self):
        state = make_state([2, 2], [1, 0, 0, 1j])
        from slocc.cli import format_state_json

        parsed, _ = parse_state_json(format_state_json(state))
        assert np.allclose(parsed.amps, state.amps)


BAD_STATE_FILES = [
    ("dims: 2 2\nlabel: x\n1 0\n0 0\n0 0\n1 0\n", False, "label must precede dims", 2),
    ("dims: 2 2\ndims: 2 2\n", False, "duplicate dims line", 2),
    ("# header\ndims: 2 x\n", False, "dims must be integers", 2),
    ("dims:\n", False, "dims line is empty", 1),
    ("dims: 2 2\n1 0\n0 zero\n0 0\n1 0\n", False, "amplitudes must be real numbers", 3),
    ("label: x\n", False, "missing dims line", None),
    ('{"dims": [2, 2], ', True, "invalid JSON: ", None),
    ('{"amps": [[1, 0]]}', True, "JSON state needs 'dims' and 'amps' fields", None),
    ('{"dims": [2, 2]}', True, "JSON state needs 'dims' and 'amps' fields", None),
    ("[2, 2]", True, "JSON state needs 'dims' and 'amps' fields", None),
]


@pytest.mark.parametrize(
    "text,json_in,message,line",
    BAD_STATE_FILES,
    ids=[
        "label-after-dims", "duplicate-dims", "dims-not-integer", "dims-empty",
        "amplitude-not-numeric", "no-dims", "invalid-json", "json-no-dims",
        "json-no-amps", "json-not-object",
    ],
)
def test_state_file_parse_errors(text, json_in, message, line, tmp_path, capsys):
    expected = message if line is None else f"line {line}: {message}"
    with pytest.raises(StateFileError) as exc:
        (parse_state_json if json_in else parse_state_text)(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(expected)

    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path), *(("--json-in",) if json_in else ()))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {expected}")


class TestClassifyCommand:
    def test_ghz_file(self, tmp_path, capsys):
        from slocc.tripartite import TripartiteClass, canonical_vector

        path = write_state(tmp_path, canonical_vector(TripartiteClass.GHZ), label="g")
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "class: GHZ" in out
        assert "ranks: [2, 2, 2]" in out

    def test_bell_file_json(self, tmp_path, capsys):
        path = write_state(tmp_path, make_state([2, 2], [1, 0, 0, 1]))
        code, out, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "Psi+"
        assert report["schmidt_rank"] == 2

    def test_general_bipartite(self, tmp_path, capsys):
        amps = np.zeros(12)
        amps[[0, 5, 10]] = 1
        path = write_state(tmp_path, make_state([3, 4], amps))
        code, out, _ = run(capsys, "classify", path, "--json")
        assert json.loads(out)["class"] == "Psi+_3"

    def test_five_qubits_unsupported(self, tmp_path, capsys):
        path = write_state(tmp_path, ghz_state(5))
        code, _, err = run(capsys, "classify", path)
        assert code == 3
        assert "unsupported" in err

    def test_nan_amplitude_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("dims: 2 2\n1 0\n0 0\n0 0\nnan 0\n")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and "NaN" in err

    def test_named_4qubit_references_computed_once(self, tmp_path, capsys, monkeypatch):
        import slocc.cli as cli_mod
        from slocc.multiqubit import cluster_state_4, descriptor

        # both named references have dim_w = 2, which lets the CLI skip them
        # for dim_w = 1 states (same_broad_class needs equal dim_w)
        assert descriptor(ghz_state(4)).dim_w == 2
        assert descriptor(cluster_state_4()).dim_w == 2
        calls = []

        def counting(state, pol):
            calls.append(state)
            return descriptor(state, pol)

        monkeypatch.setattr(cli_mod, "descriptor", counting)
        cli_mod._named_4qubit_descriptors.cache_clear()
        ghz = write_state(tmp_path, ghz_state(4), name="ghz.txt")
        product = write_state(tmp_path, make_state((2,) * 4, [1] + [0] * 15), name="p.txt")
        for _ in range(3):
            _, out, _ = run(capsys, "classify", ghz, "--json")
            assert json.loads(out)["class"] == "GHZ4"
        assert len(calls) == 3 + 2
        run(capsys, "classify", product, "--json")
        assert len(calls) == 3 + 2 + 1
        cli_mod._named_4qubit_descriptors.cache_clear()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/state.txt")
        assert code == 2

    def test_undecodable_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_undecodable_stdin_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), "utf-8"))
        code, out, err = run(capsys, "classify", "-")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_input_file_is_closed(self, tmp_path, capsys):
        path = write_state(tmp_path, make_state([2, 2], [1, 0, 0, 1]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(capsys, "classify", path)[0] == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_non_integer_json_dims_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2.7, 2], "amps": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        code, out, err = run(capsys, "classify", str(path), "--json-in")
        assert code == 2
        assert out == "" and "dimensions" in err

    def test_dims_product_does_not_wrap(self, tmp_path, capsys):
        # 2^32 * 2^32 wraps to 0 in int64; the message carries the true product
        path = tmp_path / "huge.txt"
        path.write_text("dims: 4294967296 4294967296\n1 0\n0 0\n")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and "dims require 18446744073709551616" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2 2\n1 0\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "error" in err

    def test_reduce_alias_includes_ilos(self, tmp_path, capsys):
        from slocc.tripartite import TripartiteClass, canonical_vector

        path = write_state(tmp_path, canonical_vector(TripartiteClass.W))
        code, out, _ = run(capsys, "reduce", path, "--json")
        report = json.loads(out)
        assert report["class"] == "W"
        assert "ilos" in report and report["residual"] <= 1e-8

    def test_json_reports_byte_identical(self, tmp_path, capsys):
        path = write_state(tmp_path, ghz_state(4))
        _, out1, _ = run(capsys, "classify", path, "--json")
        _, out2, _ = run(capsys, "classify", path, "--json")
        assert out1 == out2

    def test_tol_flag(self, tmp_path, capsys):
        from slocc.tripartite import TripartiteClass, canonical_vector

        path = write_state(tmp_path, canonical_vector(TripartiteClass.GHZ))
        code, out, _ = run(capsys, "classify", path, "--tol", "1e-7", "--json")
        report = json.loads(out)
        assert report["class"] == "GHZ"
        assert report["policy"]["rank_rel_tol"] == 1e-7
        assert report["policy"]["deg_tol"] == 1e-6

    def test_pivot_flag(self, tmp_path, capsys):
        # |000> + |011>: pivot 2 turns the 0_1 class into the 0_2 class
        path = write_state(tmp_path, make_state([2, 2, 2], [1, 0, 0, 1, 0, 0, 0, 0]))
        _, out, _ = run(capsys, "classify", path, "--json")
        assert json.loads(out)["class"] == "0_1 Psi+_23"
        _, out, _ = run(capsys, "classify", path, "--pivot", "2", "--json")
        assert json.loads(out)["class"] == "0_2 Psi+_13"

    def test_json_in(self, tmp_path, capsys):
        from slocc.cli import format_state_json

        path = tmp_path / "state.json"
        path.write_text(format_state_json(make_state([2, 2], [1, 0, 0, 1])))
        code, out, _ = run(capsys, "classify", str(path), "--json-in", "--json")
        assert json.loads(out)["class"] == "Psi+"

    def test_reduction_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import slocc.cli as cli_mod
        from slocc.errors import ReductionFailed
        from slocc.tripartite import TripartiteClass, canonical_vector

        def boom(state, pol):
            raise ReductionFailed("synthetic")

        monkeypatch.setattr(cli_mod, "reduce_to_canonical", boom)
        path = write_state(tmp_path, canonical_vector(TripartiteClass.W))
        code, _, err = run(capsys, "reduce", path)
        assert code == 4
        assert "reduction failed" in err

    @pytest.mark.parametrize("scale,expected", [(1e-8, 0), (1e200, 0), (1e-300, 0)])
    def test_reduce_exit_code_at_scale(self, tmp_path, capsys, scale, expected):
        from slocc.tripartite import TripartiteClass, canonical_vector

        amps = canonical_vector(TripartiteClass.GHZ).amps * scale
        path = write_state(tmp_path, make_state([2, 2, 2], amps))
        code, out, _ = run(capsys, "reduce", path, "--json")
        assert code == expected
        if expected == 0:
            assert json.loads(out)["class"] == "GHZ"

    @pytest.mark.parametrize("scale,expected", [(1e7, 0), (1e-100, 0), (1e200, 0), (1e300, 0)])
    def test_reduce_rank1_orbit_state_at_scale(self, tmp_path, capsys, scale, expected):
        from conftest import orbit_state
        from _kit import RandomSource
        from slocc.tripartite import TripartiteClass

        for tag in (TripartiteClass.C000, TripartiteClass.C01_PSI23):
            state = orbit_state(tag, RandomSource(77))[0]
            path = write_state(tmp_path, make_state([2, 2, 2], state.amps * scale))
            code, out, _ = run(capsys, "reduce", path, "--json")
            assert code == expected, tag
            if expected == 0:
                report = json.loads(out)
                assert report["class"] == tag.value and report["residual"] <= 1e-8
            else:
                assert out == ""

    @pytest.mark.parametrize("verb", [("reduce",), ("classify", "--ilos")])
    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    @pytest.mark.parametrize(
        "state",
        [
            make_state([2, 2], [1, 0, 0, 1]),
            make_state([2, 3], [1, 0, 0, 0, 1, 0]),
            ghz_state(4),
            ghz_state(5),
        ],
        ids=["Psi+", "2x3", "GHZ4", "GHZ5"],
    )
    def test_reduce_refuses_other_dims(self, tmp_path, capsys, verb, fmt, state):
        path = write_state(tmp_path, state)
        code, out, err = run(capsys, *verb, path, *fmt)
        assert code == 3 and out == ""
        assert err == f"error: reduce needs dims [2, 2, 2], got {list(state.dims)}\n"

    def test_reduce_refuses_canonical_4qubit_pipe_file(self, tmp_path, capsys):
        for name in ("GHZ4", "Phi4", "Psi+", "00"):
            _, text, _ = run(capsys, "canonical", name)
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            assert run(capsys, "reduce", str(path), "--json")[0] == 3
            assert run(capsys, "classify", str(path), "--json")[0] == 0

    def test_4qubit_factor_report(self, tmp_path, capsys):
        bell = np.array([1, 0, 0, 1])
        state = make_state((2,) * 4, np.kron(np.kron([1, 0], [1, 0]), bell))
        path = write_state(tmp_path, state)
        _, out, _ = run(capsys, "classify", path, "--json")
        report = json.loads(out)
        assert report["factor"]["position"] == 2
        assert report["factor"]["reduced_class"] == "0_1 Psi+_23"


class TestTextReportsAndExitPaths:
    def test_reduce_text_report(self, capsys, monkeypatch):
        from slocc.tripartite import TripartiteClass, canonical_vector

        text = format_state_text(canonical_vector(TripartiteClass.W))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "reduce", "-")
        assert code == 0
        lines = out.splitlines()
        assert "class: W" in lines
        for prefix in ("residual: ", "spectrum: W1^-1 @ W2 -> ", "F1: ", "F2: ", "F3: "):
            assert sum(line.startswith(prefix) for line in lines) == 1, prefix

    def test_4qubit_descriptor_text_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "classify", write_state(tmp_path, ghz_state(4)))
        assert code == 0
        lines = out.splitlines()
        assert "class: GHZ4" in lines
        assert "descriptor: 4q|dimW=2|generic=GHZ|exc=[000,000]" in lines
        assert sum(line.startswith("exceptional_points: [") for line in lines) == 1

    def test_4qubit_factor_text_report(self, tmp_path, capsys):
        from slocc.tripartite import TripartiteClass, canonical_vector

        w = canonical_vector(TripartiteClass.W).amps
        path = write_state(tmp_path, make_state((2,) * 4, np.kron(w, [1, 0])))
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        (factor,) = [line for line in out.splitlines() if line.startswith("factor: ")]
        assert factor.startswith("factor: qubit 4, vector ")
        assert factor.endswith(", reduced class W")

    def test_tolerance_out_of_range_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, make_state([2, 2], [1, 0, 0, 1]))
        code, out, err = run(capsys, "classify", path, "--tol", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: rank_rel_tol must lie strictly between 0 and 1")

    def test_pivot_out_of_range_exits_2(self, tmp_path, capsys):
        from slocc.tripartite import TripartiteClass, canonical_vector

        path = write_state(tmp_path, canonical_vector(TripartiteClass.GHZ))
        code, out, err = run(capsys, "classify", path, "--pivot", "5")
        assert code == 2 and out == ""
        assert err == "error: pivot 5 out of range 1..3\n"

    def test_decision_error_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, make_state([2, 2, 2], [1, 0, 0, 0.5, 0, 0.05, 0, 0]))
        code, out, err = run(capsys, "classify", path, "--tol", "0.501")
        assert code == 2 and out == ""
        assert err.startswith("error: ranks (1, 1, 2)")

    def test_canonical_json_pipes_into_json_in(self, capsys, monkeypatch):
        code, text, _ = run(capsys, "canonical", "GHZ", "--json")
        assert code == 0 and json.loads(text)["label"] == "GHZ"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "classify", "-", "--json-in", "--json")
        report = json.loads(out)
        assert code == 0 and report["label"] == "GHZ" and report["class"] == "GHZ"


class TestCanonicalCommand:
    def test_w_amplitudes(self, capsys):
        code, out, _ = run(capsys, "canonical", "W")
        parsed, label = parse_state_text(out)
        assert label == "W"
        assert list(np.flatnonzero(parsed.amps)) == [1, 2, 4]

    def test_000_single_amplitude(self, capsys):
        _, out, _ = run(capsys, "canonical", "000")
        parsed, _ = parse_state_text(out)
        assert np.count_nonzero(parsed.amps) == 1

    def test_ghz4(self, capsys):
        _, out, _ = run(capsys, "canonical", "GHZ4")
        parsed, _ = parse_state_text(out)
        assert parsed.dims == (2, 2, 2, 2)
        assert list(np.flatnonzero(parsed.amps)) == [0, 15]

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "canonical", "XYZ")
        assert code == 2

    def test_cluster_alias(self, capsys):
        code, out, _ = run(capsys, "canonical", "cluster")
        parsed, label = parse_state_text(out)
        assert label == "Phi4"

    @pytest.mark.parametrize("name", [n for n in CANONICAL_NAMES if " " in n])
    def test_compact_name(self, name, capsys, monkeypatch):
        # a class name with its spaces removed names the same class; the label keeps them
        code, out, _ = run(capsys, "canonical", name.replace(" ", ""))
        assert code == 0 and out == run(capsys, "canonical", name)[1]
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0 and f"class: {name}\n" in out

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_round_trip_every_name(self, name, tmp_path, capsys):
        _, out, _ = run(capsys, "canonical", name)
        path = tmp_path / "c.txt"
        path.write_text(out)
        code, out2, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        assert json.loads(out2)["class"] == name


class TestBoundCommand:
    def test_six_three(self, capsys):
        code, out, _ = run(capsys, "bound", "6", "3")
        assert code == 0 and out.strip() == "45"

    def test_split(self, capsys):
        _, out, _ = run(capsys, "bound", "6", "3", "--split")
        assert out.strip() == "45 = 21 genuine + 24 degenerate"

    def test_one_two(self, capsys):
        _, out, _ = run(capsys, "bound", "1", "2")
        assert out.strip() == "4"

    def test_zero_m_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "0", "3")
        assert code == 2

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "six", "3"])
        assert exc.value.code == 2


FAILURES = [  # argv, stdin bytes, exit code, the one stderr line ({tmp}: the test's directory)
    (["classify", "{tmp}/missing.txt"], None, 2,
     "error: [Errno 2] No such file or directory: '{tmp}/missing.txt'"),
    (["classify", "-"], b"\xff\xfe", 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["classify", "{tmp}/short.txt"], None, 2,
     "error: {tmp}/short.txt: got 1 amplitudes, dims require 4"),
    (["classify", "{tmp}/bell.txt", "--tol", "2"], None, 2,
     "error: rank_rel_tol must lie strictly between 0 and 1, got 2.0"),
    (["classify", "{tmp}/ghz.txt", "--pivot", "4"], None, 2, "error: pivot 4 out of range 1..3"),
    (["reduce", "{tmp}/bell.txt"], None, 3, "error: reduce needs dims [2, 2, 2], got [2, 2]"),
    (["classify", "{tmp}/ghz5.txt"], None, 3,
     "error: unsupported dims [2, 2, 2, 2, 2]; supported: any bipartite, [2,2,2], [2,2,2,2]"),
    (["classify", "{tmp}/ranks112.txt", "--tol", "0.501"], None, 2,
     "error: ranks (1, 1, 2): exactly two pivots read rank 1, impossible for a valid state"),
    (["reduce", "{tmp}/ghz.txt", "--json"], None, 4, "error: reduction failed: synthetic"),
    (["canonical", "XYZ"], None, 2,
     "error: unknown class name 'XYZ'; known: 000, 0_1 Psi+_23, 0_2 Psi+_13, 0_3 Psi+_12, GHZ, W, "
     "00, Psi+, GHZ4, Phi4"),
    (["bound", "0", "3"], None, 2, "error: m_n must be at least 1"),
]


@pytest.mark.parametrize(
    "argv,stdin,code,line",
    FAILURES,
    ids=[
        "missing-file", "undecodable-stdin", "parse-error", "tol-out-of-range",
        "pivot-out-of-range", "reduce-other-dims", "unsupported-dims", "decision-error",
        "reduction-failure", "unknown-name", "bound-zero-m",
    ],
)
def test_every_failure_leaves_as_one_line(argv, stdin, code, line, tmp_path, capsys, monkeypatch):
    import slocc.cli as cli_mod
    from slocc.errors import ReductionFailed
    from slocc.tripartite import TripartiteClass, canonical_vector

    def boom(state, pol):  # only the reduce of the GHZ file gets this far
        raise ReductionFailed("synthetic")

    monkeypatch.setattr(cli_mod, "reduce_to_canonical", boom)
    write_state(tmp_path, canonical_vector(TripartiteClass.GHZ), name="ghz.txt")
    write_state(tmp_path, make_state([2, 2], [1, 0, 0, 1]), name="bell.txt")
    write_state(tmp_path, ghz_state(5), name="ghz5.txt")
    write_state(tmp_path, make_state([2, 2, 2], [1, 0, 0, 0.5, 0, 0.05, 0, 0]), name="ranks112.txt")
    (tmp_path / "short.txt").write_text("dims: 2 2\n1 0\n")
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), "utf-8"))
    got = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert got == (code, "", line.format(tmp=tmp_path) + "\n")


class TestStateFileBoundary:
    @pytest.mark.parametrize("label", ["a#b", "x\ny", "x\r\ny", "x\u2028y", " x", "x ", "x\t"])
    def test_text_writer_refuses_labels_it_cannot_carry(self, label):
        with pytest.raises(StateFileError, match="cannot be written"):
            format_state_text(make_state([2, 2], [1, 0, 0, 1]), label=label)

    @pytest.mark.parametrize("label", ["x", "a b", "tri/0_1 Psi+_23/0", "quad/W(x)0/0", "GHZ"])
    def test_text_labels_read_back_as_written(self, label):
        text = format_state_text(make_state([2, 2], [1, 0, 0, 1]), label=label)
        assert parse_state_text(text)[1] == label

    @pytest.mark.parametrize("label", [5, ["x"], True, {"a": 1}])
    def test_json_label_must_be_a_string(self, label, tmp_path, capsys):
        bell = {"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        text = json.dumps({**bell, "label": label})
        with pytest.raises(StateFileError, match="label must be a string"):
            parse_state_json(text)
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path), "--json-in")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: label must be a string, got {label!r}\n"

    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"dims": [2, 2], "amps": [[1' + "0" * 5000 + ", 0]]}", "Exceeds the limit"),
            ('{"dims": [2, 2], "amps": ' + "[" * 100000 + "]" * 100000 + "}", "maximum recursion"),
        ],
        ids=["5001-digit-integer", "deep-nesting"],
    )
    def test_json_the_decoder_refuses_is_a_parse_error(self, text, reason, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path), "--json-in")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: {reason}") and err.count("\n") == 1

    def test_json_label_null_is_no_label(self):
        text = json.dumps({"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0], [1, 0]], "label": None})
        assert parse_state_json(text)[1] is None

    def test_bool_json_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2, true], "amps": [[1, 0], [1, 0]]}')
        code, out, err = run(capsys, "classify", str(path), "--json-in")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: subsystem dimensions must be positive integers, got (2, True)\n"
        )
