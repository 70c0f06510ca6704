import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framepaver
from framepaver import GramSystem, gram_dumps, gram_loads
from framepaver import cli
from framepaver.cli import dispatch


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = dispatch(argv)
        out, err = capsys.readouterr()
        return code, out, err
    return _run


def write_gram(tmp_path, name, entries, **kwargs):
    g = GramSystem.from_entries(entries, **kwargs)
    path = tmp_path / name
    path.write_text(gram_dumps(g), encoding="utf-8")
    return path


class TestConstantsCommand:
    def test_s_two_values(self, run):
        code, out, _ = run(["constants", "--s", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["c_s"] == pytest.approx(math.pi**2 / 3.0, abs=1e-9)
        lo, hi = payload["zeta"]
        assert lo <= math.pi**2 / 6.0 <= hi
        lo, hi = payload["d_s"]
        assert lo <= 2.0 * math.pi**2 / 6.0 - 1.0 <= hi

    def test_exponent_near_one_is_enclosed(self, run):
        # the enclosure is about 3e-9 wide here; no width limit rejects it
        code, out, _ = run(["constants", "--s", "1.000001"])
        assert code == 0
        payload = json.loads(out)
        lo, hi = payload["zeta"]
        d_lo, d_hi = payload["d_s"]
        with mpmath.workdps(40):
            z = mpmath.zeta(mpmath.mpf(1.000001))
            assert lo <= z <= hi
            assert d_lo <= 2 * z - 1 <= d_hi
        # the decay-sum supremum is 2*zeta - 1: twice the zeta width plus
        # the outward rounding
        assert d_hi - d_lo <= 2.0 * (hi - lo) + 4.0 * math.ulp(d_hi)

    def test_invalid_exponent_is_input_error(self, run):
        code, _, err = run(["constants", "--s", "1.0"])
        assert code == 1
        assert "error" in err

    def test_python_dash_m_matches_dispatch(self, run):
        src = str(pathlib.Path(framepaver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("framepaver", "framepaver.cli"):
            for argv, expected_code in ((["constants", "--s", "2"], 0),
                                        (["constants", "--s", "1.0"], 1)):
                proc = subprocess.run([sys.executable, "-m", module, *argv],
                                      capture_output=True, text=True, env=env,
                                      timeout=120)
                code, out, _ = run(argv)
                assert proc.returncode == code == expected_code
                assert proc.stdout == out


class TestGenCommand:
    def test_power_law_round_trip_bit_identical(self, run, tmp_path):
        out_file = tmp_path / "g.json"
        code, _, _ = run(["gen", "power-law", "--A", "1", "--s", "2", "--C", "1",
                          "--size", "6", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert gram_dumps(gram_loads(text)) == text

    def test_generation_is_deterministic(self, run):
        code_a, out_a, _ = run(["gen", "power-law", "--A", "0.5", "--s", "1.5",
                                "--C", "2", "--size", "5"])
        code_b, out_b, _ = run(["gen", "power-law", "--A", "0.5", "--s", "1.5",
                                "--C", "2", "--size", "5"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_stdout_pipe_matches_the_file_route(self, run, tmp_path):
        gen = ["gen", "power-law", "--A", "1", "--s", "2", "--C", "1", "--size", "8"]
        code, text, _ = run(gen)
        assert code == 0
        assert text == gram_dumps(framepaver.power_law_gram(1.0, 2.0, 1.0, 8))
        code, piped, _ = run(["partition"], stdin_text=text)
        assert code == 0
        gram, cert = tmp_path / "g.json", tmp_path / "cert.json"
        assert run([*gen, "--out", str(gram)])[0] == 0
        assert run(["partition", "--input", str(gram), "--out", str(cert)])[0] == 0
        assert gram.read_text(encoding="utf-8") == text
        assert cert.read_text(encoding="utf-8") == piped

    def test_translates(self, run):
        code, out, _ = run(["gen", "translates", "--window", "1,1", "--period", "4"])
        assert code == 0
        assert out == gram_dumps(framepaver.translate_frame_gram([1.0, 1.0], 4))
        g = gram_loads(out)
        assert g.entry(1, 1) == 2.0
        assert g.entry(1, 2) == 1.0
        assert g.entry(1, 3) == 0.0

    def test_bad_window_is_usage_error(self, run):
        code, _, err = run(["gen", "translates", "--window", "1,zap",
                            "--period", "4"])
        assert code == 1
        assert "error" in err

    def test_frame_check_invertible(self, run, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text(json.dumps({"vectors": [[1, 0], [0, 1], [0, 1]]}),
                        encoding="utf-8")
        code, out, _ = run(["gen", "frame-check", "--vectors", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["invertible"] is True
        assert payload["min_singular"] == pytest.approx(1.0, abs=1e-12)

    def test_frame_check_singular_exits_two(self, run, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text(json.dumps({"vectors": [[1, 0], [1, 0]]}), encoding="utf-8")
        code, out, _ = run(["gen", "frame-check", "--vectors", str(path)])
        assert code == 2
        assert json.loads(out)["invertible"] is False


class TestPartitionCommand:
    def test_pipeline_from_stdin(self, run):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "50"])
        code, out, _ = run(["partition", "--epsilon", "0.5"], stdin_text=gram_text)
        assert code == 0
        cert = json.loads(out)
        assert cert["modulus"] == 3
        assert cert["verdict"] == "PASS"
        assert cert["scope"] == "global"
        assert all(m >= 0.5 for m in cert["margins"])

    def test_explicit_modulus_failing_epsilon_exits_two(self, run, tmp_path):
        path = write_gram(tmp_path, "g.json", [[1.0, 0.9], [0.9, 1.0]])
        code, out, _ = run(["partition", "--input", str(path), "--modulus", "1",
                            "--epsilon", "0.5"])
        assert code == 2
        assert json.loads(out)["verdict"] == "FAIL"

    def test_without_envelope_or_modulus_is_input_error(self, run, tmp_path):
        path = write_gram(tmp_path, "g.json", np.eye(4).tolist())
        code, _, err = run(["partition", "--input", str(path)])
        assert code == 1
        assert "modulus" in err or "envelope" in err

    def test_output_is_deterministic(self, run, tmp_path):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "30"])
        a = run(["partition"], stdin_text=gram_text)
        b = run(["partition"], stdin_text=gram_text)
        assert a == b

    def test_malformed_stdin_is_input_error(self, run):
        code, _, err = run(["partition"], stdin_text="{broken")
        assert code == 1
        assert "<stdin>" in err


class TestCertifyCommand:
    def test_paving_missing_index_names_it(self, run, tmp_path):
        gram = write_gram(tmp_path, "g.json", np.eye(10).tolist())
        paving = tmp_path / "p.json"
        paving.write_text(json.dumps({
            "range": 10, "modulus": None,
            "classes": [[1, 2, 3, 4, 5, 6], [8, 9, 10]],
        }), encoding="utf-8")
        code, _, err = run(["certify", "--input", str(gram),
                            "--paving", str(paving)])
        assert code == 1
        assert "7" in err

    def test_valid_paving_passes(self, run, tmp_path):
        gram = write_gram(tmp_path, "g.json", np.eye(6).tolist())
        paving = tmp_path / "p.json"
        paving.write_text(json.dumps({
            "range": 6, "modulus": 2,
            "classes": [[1, 3, 5], [2, 4, 6]],
        }), encoding="utf-8")
        code, out, _ = run(["certify", "--input", str(gram),
                            "--paving", str(paving), "--epsilon", "0.9"])
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"


class TestOracleCommand:
    def test_hand_instance(self, run, tmp_path):
        e = np.full((5, 5), 0.6)
        np.fill_diagonal(e, 1.0)
        path = write_gram(tmp_path, "g.json", e.tolist())
        code, out, _ = run(["oracle", "--input", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 3
        assert payload["compared_modulus"] is None
        assert len(payload["margins"]) == 3

    def test_infeasible_exits_two(self, run, tmp_path):
        path = write_gram(tmp_path, "g.json", np.eye(3).tolist())
        code, _, err = run(["oracle", "--input", str(path), "--epsilon", "2.0"])
        assert code == 2
        assert "infeasible" in err

    def test_size_past_the_cap_names_the_file(self, run, tmp_path):
        path = write_gram(tmp_path, "big.json", np.eye(20).tolist())
        code, out, err = run(["oracle", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: instance size 20 exceeds the search cap 16\n"
        code, out, err = run(["oracle", "--input", str(path), "--cap", "0"])
        assert (code, out, err) == (1, "", "error: cap must be an integer >= 1, got 0\n")

    def test_compared_modulus_with_tail_model(self, run):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "12"])
        code, out, _ = run(["oracle"], stdin_text=gram_text)
        assert code == 0
        payload = json.loads(out)
        assert payload["compared_modulus"] == 3
        assert payload["N"] <= 3


class TestReportCommand:
    def test_renders_certificate(self, run, tmp_path):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "20"])
        _, cert_text, _ = run(["partition"], stdin_text=gram_text)
        code, out, _ = run(["report"], stdin_text=cert_text)
        assert code == 0
        assert "PASS" in out
        assert "margins" in out
        assert "global" in out

    def test_gap_section_with_oracle(self, run, tmp_path):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "12"])
        _, cert_text, _ = run(["partition"], stdin_text=gram_text)
        oracle_path = tmp_path / "oracle.json"
        code, oracle_text, _ = run(["oracle"], stdin_text=gram_text)
        assert code == 0
        oracle_path.write_text(oracle_text, encoding="utf-8")
        code, out, _ = run(["report", "--oracle", str(oracle_path)],
                           stdin_text=cert_text)
        assert code == 0
        assert "theory vs oracle" in out
        assert "gap" in out

    @pytest.mark.parametrize("bad_n", [True, 2.5, 0, "3"])
    def test_oracle_count_must_be_a_positive_integer(self, run, tmp_path, bad_n):
        _, gram_text, _ = run(["gen", "power-law", "--A", "1", "--s", "2",
                               "--C", "1", "--size", "12"])
        _, cert_text, _ = run(["partition"], stdin_text=gram_text)
        oracle_path = tmp_path / "oracle.json"
        oracle_path.write_text(json.dumps({"N": bad_n}), encoding="utf-8")
        code, out, err = run(["report", "--oracle", str(oracle_path)],
                             stdin_text=cert_text)
        assert code == 1
        assert out == ""
        assert str(oracle_path) in err
        assert "'N' must be an integer" in err


# Each JSON integer field, the value just below its range, and the name its
# error gives it.
_INTEGER_FIELDS = {"size": (0, "size"), "bandwidth": (-1, "bandwidth"),
                   "modulus": (0, "modulus"), "range": (0, "range other than 'naturals'"),
                   "N": (0, "oracle 'N'")}


class TestIntegerFields:
    @pytest.mark.parametrize("field,value", [
        (field, value) for field, (low, _) in _INTEGER_FIELDS.items()
        for value in (True, 2.5, "3", low)])
    def test_field_must_be_an_integer_in_range(self, run, tmp_path, monkeypatch, field,
                                               value):
        gram = {"size": 1, "entries": [[1.0]]}
        paving = {"range": 1, "modulus": None, "classes": [[1]]}
        oracle = {"N": 1}
        if field == "bandwidth":
            gram["entries"] = {"banded": {"bandwidth": value, "bands": [[1.0]]}}
        else:
            {"size": gram, "modulus": paving, "range": paving, "N": oracle}[field][field] = value
        cert = {"range": 1, "classes": {"kind": "explicit", "classes": [[1]]},
                "margins": [1.0], "epsilon": 0.5, "scope": "truncation-only",
                "verdict": "PASS"}
        monkeypatch.chdir(tmp_path)
        for name, payload in (("gram", gram), ("paving", paving), ("cert", cert),
                              ("oracle", oracle)):
            pathlib.Path(f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(["report", "--input", "cert.json", "--oracle", "oracle.json"]
                             if field == "N" else
                             ["certify", "--input", "gram.json", "--paving", "paving.json"])
        assert (code, out) == (1, "")
        assert f"{_INTEGER_FIELDS[field][1]} must be an integer" in err, err


class TestFitCommand:
    def test_fit_and_apply(self, run, tmp_path):
        _, gram_text, _ = run(["gen", "translates", "--window", "1,0.5,0.25",
                               "--period", "8"])
        applied = tmp_path / "fitted.json"
        code, out, _ = run(["fit", "--apply", str(applied)], stdin_text=gram_text)
        assert code == 0
        payload = json.loads(out)
        assert payload["envelope"]["A"] > 0.0
        assert payload["envelope"]["s"] > 1.0
        fitted = gram_loads(applied.read_text(encoding="utf-8"))
        assert fitted.envelope is not None


class TestUsageErrors:
    def test_no_arguments(self, run):
        assert run([])[0] == 1

    def test_unknown_subcommand(self, run):
        assert run(["frobnicate"])[0] == 1

    def test_bad_flag_value(self, run):
        assert run(["gen", "power-law", "--A", "1", "--s", "2", "--C", "1",
                    "--size", "many"])[0] == 1

    def test_help_exits_zero(self, run):
        code, out, _ = run(["--help"])
        assert code == 0

    def test_missing_file(self, run):
        code, _, err = run(["partition", "--input", "/nonexistent/g.json"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("text", [
        "",
        "not json",
        "[]",
        '{"size": 2, "entries": [[1, 0], [0]]}',
        '{"size": 1, "entries": [[-5]]}',
        '{"size": 1, "entries": [[1]], "envelope": {"A": 1, "s": 1}}',
    ])
    def test_malformed_inputs_exit_one(self, run, text):
        assert run(["partition"], stdin_text=text)[0] == 1

    @pytest.mark.parametrize("command", ["partition", "report"])
    @pytest.mark.parametrize("text, fault", [
        pytest.param('{"size": 1, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}",
                     "nested too deeply", id="deep-nesting"),
        pytest.param('{"range": %s, "classes": [[1]]}' % ("1" * 5000),
                     "an integer has more than", id="5000-digits"),
    ])
    def test_hostile_json_exits_one_naming_the_file(self, run, tmp_path, command,
                                                    text, fault):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run([command, "--input", str(path)])  # must not raise
        assert code == 1
        assert err.startswith(f"error: {path}: ") and fault in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["partition"], ["fit"],
                                         ["certify", "--paving", "{paving}"]])
    def test_declared_size_past_the_rows_is_rejected_before_allocating(
            self, run, tmp_path, command):
        # 10^5 empty rows, 0.4 MB of text, declare a 74.5 GiB square
        size = 100_000
        path, paving = tmp_path / "huge.json", tmp_path / "paving.json"
        path.write_text('{"size": %d, "entries": [%s]}' % (size, ", ".join(["[]"] * size)),
                        encoding="utf-8")
        paving.write_text('{"range": 1, "classes": [[1]]}', encoding="utf-8")
        argv = [arg.format(paving=paving) for arg in command]
        started = time.perf_counter()
        code, out, err = run([*argv, "--input", str(path)])
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: {path}: entries row 0 must be a list of {size} numbers\n"

    @given(text=st.text(max_size=300))
    def test_arbitrary_stdin_never_panics(self, text):
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            code = dispatch(["partition"])
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2)


def _trace_targets():
    """(span name, module, attribute path) of every function certbench's
    tracer wraps, read from its file; it imports only the standard library."""
    path = pathlib.Path(__file__).resolve().parents[1] / "certbench" / "trace_op.py"
    spec = importlib.util.spec_from_file_location("trace_op", path)
    trace_op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_op)
    return trace_op.TARGETS


class TestLazyImports:
    """Subcommands import only the modules they call."""

    TRACED = {f"{module}.{path}": (module, path) for _, module, path in _trace_targets()}
    # The names the tracer rebinds on framepaver.cli.
    TRACED_AT_CLI = sorted({path.split(".")[0] for module, path in TRACED.values()
                            if module == "framepaver.cli"})

    @staticmethod
    def python(code):
        src = str(pathlib.Path(framepaver.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_help_and_constants_do_not_import_numpy(self):
        out = self.python("""
import contextlib, io, sys
import framepaver.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.dispatch(["--help"]), cli.dispatch(["constants", "--s", "2"])]
print(codes, "numpy" in sys.modules)
""")
        assert out == "[0, 0] False\n"

    def test_star_import_binds_all_from_home_modules(self):
        namespace = {}
        exec("from framepaver import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == framepaver.__all__
        assert set(framepaver.__all__) <= set(dir(framepaver))
        for name, value in namespace.items():
            home = importlib.import_module(f"framepaver.{framepaver._HOMES[name]}")
            assert value is getattr(home, name) is getattr(framepaver, name)
            if hasattr(value, "__module__"):
                assert value.__module__ == home.__name__, name

    @pytest.mark.parametrize("target", TRACED)
    def test_traced_targets_resolve(self, target):
        # The lookup the tracer makes before it wraps (Recorder.install).
        module, path = self.TRACED[target]
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        assert callable(getattr(raw, "__func__", raw)), target

    @pytest.mark.parametrize("name", TRACED_AT_CLI)
    def test_traced_names_resolve_on_the_cli_module(self, name):
        value = getattr(cli, name)
        if name in framepaver._HOMES:
            assert value is getattr(framepaver, name)
        assert vars(cli)[name] is value

    def test_function_set_before_dispatch_is_called(self, run, tmp_path, monkeypatch):
        gram = tmp_path / "g.json"
        code, _, _ = run(["gen", "power-law", "--A", "1", "--s", "2", "--C", "1",
                          "--size", "20", "--out", str(gram)])
        assert code == 0
        calls = []
        real = framepaver.certify

        def wrapped(*args, **kwargs):
            calls.append(args[1].modulus)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "certify", wrapped)
        code, out, _ = run(["partition", "--input", str(gram)])
        assert code == 0 and calls == [json.loads(out)["modulus"]]

    def test_function_set_on_a_fresh_module_is_called(self):
        # Set before any subcommand has read the name, as a tracer does.
        out = self.python("""
import contextlib, io
import framepaver.cli as cli
from framepaver import GramSystem
calls = []
def fake(*args):
    calls.append(args)
    return GramSystem.from_entries([[7.0]])
cli.power_law_gram = fake
with contextlib.redirect_stdout(io.StringIO()) as text:
    code = cli.dispatch(["gen", "power-law", "--A", "1", "--s", "2", "--C", "3",
                         "--size", "4"])
print(code, calls, '"size": 1,' in text.getvalue())
""")
        assert out == "0 [(1.0, 2.0, 3.0, 4)] True\n"

    def test_oracle_cap_default_has_one_definition(self):
        from framepaver import constants, oracle
        assert oracle.DEFAULT_SIZE_CAP is constants.DEFAULT_SIZE_CAP
        assert inspect.signature(oracle.min_partition).parameters["cap"].default \
            == constants.DEFAULT_SIZE_CAP
        assert cli._build_parser().parse_args(["oracle"]).cap == constants.DEFAULT_SIZE_CAP


class TestEntryPoints:
    """``python -m framepaver`` and ``python -m framepaver.cli`` run ``dispatch``."""

    @pytest.mark.parametrize("module", ["framepaver", "framepaver.cli"])
    def test_module_prints_what_dispatch_prints(self, run, module):
        expected = run(["constants", "--s", "2"])
        src = str(pathlib.Path(framepaver.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", module, "constants", "--s", "2"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        assert expected[0] == 0 and expected[1]
