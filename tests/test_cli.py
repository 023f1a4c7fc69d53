import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import keplerlab
import keplerlab.cli
from keplerlab.cli import DEFAULT_H, _emit, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"

# spans long enough for the two-revolution minimum of the rate fit
TWO_REVS = ["--steps", "100"]  # 100 * 0.5 = 50 > 2T = 39.7

_RUN_FLAGS = {"--method", "--h", "--steps", "--t-end", "--x0", "--v0", "--out", "--format",
              "--config"}
PINNED_FLAGS = {
    "simulate": _RUN_FLAGS,
    "precession": _RUN_FLAGS,
    "scan": {"--methods", "--h-list", "--t-end", "--x0", "--v0", "--out", "--format",
             "--config"},
    "error-curve": _RUN_FLAGS,
    "predict": {"--method", "--h", "--a", "--e", "--x0", "--v0", "--out", "--format",
                "--config"},
    "averages": {"--a", "--e", "--x0", "--v0", "--out", "--format", "--config"},
    "bench": {"--methods", "--h", "--steps", "--x0", "--v0", "--out", "--format",
              "--config"},
}

_RUN_METADATA = {"format", "h", "maxIterations", "method", "steps", "tolerance", "v0", "x0"}
# a small JSON run of each subcommand, and the keys of its metadata
PINNED_METADATA = {
    "simulate": (["--method", "sv", "--steps", "5"], _RUN_METADATA),
    "precession": (["--method", "sv", *TWO_REVS], _RUN_METADATA),
    "scan": (["--methods", "sv", "--h-list", "0.4,0.5", "--t-end", "45"],
             {"format", "hList", "maxIterations", "methods", "revolutions", "tEnd",
              "tSpan", "tolerance", "v0", "x0"}),
    "error-curve": (["--method", "sv", "--h", "0.1", "--t-end", "3"], _RUN_METADATA | {"tEnd"}),
    "predict": (["--method", "sv"], {"elements", "format", "h", "method", "v0", "x0"}),
    "averages": ([], {"elements", "format", "v0", "x0"}),
    "bench": (["--methods", "sv", "--steps", "10"],
              {"format", "h", "maxIterations", "methods", "steps", "tolerance", "v0", "x0"}),
}

# one value other than the default for every setting of a subcommand but
# --out, as a config file would hold it
_STATE = {"x0": [-2.5, 0.0], "v0": [0.0, 0.5]}
NON_DEFAULT_SETTINGS = {
    "simulate": {"method": "mp", "h": 0.25, "steps": 12, "t_end": 3.0, **_STATE,
                 "format": "json"},
    "precession": {"method": "sv", "h": 0.4, "steps": 100, "t_end": 48.0, **_STATE,
                   "format": "csv"},
    "scan": {"methods": ["sv", "mp"], "h_list": [0.25, 0.5], "t_end": 45.0, **_STATE,
             "format": "json"},
    "error-curve": {"method": "dec", "h": 0.2, "steps": 7, "t_end": 4.0, **_STATE,
                    "format": "json"},
    "predict": {"method": "mp", "h": 0.3, "a": 2.0, "e": 0.5, **_STATE, "format": "csv"},
    "averages": {"a": 1.5, "e": 0.39, **_STATE, "format": "csv"},
    "bench": {"methods": ["sv", "mp"], "h": 0.2, "steps": 50, **_STATE, "format": "csv"},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_json(capsys, subcommand, *argv):
    code, out, err = run_cli(capsys, subcommand, "--format", "json", *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(subcommand))
    return payload


class TestJsonPayloadsAgainstSchemas:
    def test_simulate(self, capsys):
        payload = check_json(capsys, "simulate", "--method", "sv", "--steps", "5")
        assert len(payload["rows"]) == 6
        assert payload["rows"][0]["x1"] == -3.0
        assert payload["metadata"]["method"] == "sv"

    def test_precession(self, capsys):
        payload = check_json(capsys, "precession", "--method", "sv", *TWO_REVS)
        assert 0.05 < payload["measured"] < 0.08
        assert payload["predictedQuadrature"] is not None

    def test_precession_quadrature_null_for_higher_order(self, capsys):
        payload = check_json(capsys, "precession", "--method", "fr", *TWO_REVS)
        assert payload["predictedQuadrature"] is None
        assert payload["predictedClosedForm"] == 0.0

    def test_precession_quadrature_for_every_stencil(self, capsys):
        payload = check_json(capsys, "precession", "--method", "lc", *TWO_REVS)
        assert payload["predictedClosedForm"] == 0.0
        assert abs(payload["predictedQuadrature"]) < 1e-15

    def test_scan(self, capsys):
        payload = check_json(capsys, "scan", "--methods", "sv,mp",
                             "--h-list", "0.25,0.5", "--t-end", "45")
        assert len(payload["rows"]) == 4
        assert payload["metadata"]["tSpan"] >= 45.0

    def test_error_curve(self, capsys):
        payload = check_json(capsys, "error-curve", "--method", "sv",
                             "--h", "0.1", "--t-end", "3")
        assert payload["rows"][0]["errorNorm"] == 0.0
        assert len(payload["rows"]) == 31

    def test_predict(self, capsys):
        payload = check_json(capsys, "predict", "--method", "sv", "--h", "0.5")
        assert math.isclose(payload["predictedClosedForm"], 0.0674, rel_tol=0.01)
        assert payload["leadingOrder"] == 2

    def test_predict_from_shape(self, capsys):
        # from-shape orbits are counterclockwise (L > 0): sv negative, mp positive
        payload = check_json(capsys, "predict", "--method", "mp",
                             "--a", "2.0", "--e", "0.5")
        assert payload["predictedClosedForm"] > 0.0
        assert payload["metadata"]["elements"]["e"] == 0.5

    def test_predict_circular_has_null_quadrature(self, capsys):
        payload = check_json(capsys, "predict", "--method", "sv",
                             "--a", "2.0", "--e", "0")
        assert payload["predictedQuadrature"] is None
        assert payload["predictedClosedForm"] != 0.0

    def test_predict_near_circular_has_null_quadrature(self, capsys):
        # at e = 1e-30 the quadrature would divide round-off by e: -4.4e11
        # against a closed form of -0.0157
        payload = check_json(capsys, "predict", "--method", "sv", "--a", "1",
                             "--e", "1e-30", "--h", "0.1")
        assert payload["predictedQuadrature"] is None
        assert math.isclose(payload["predictedClosedForm"], -math.pi / 200.0, rel_tol=1e-12)

    def test_averages(self, capsys):
        payload = check_json(capsys, "averages")
        assert [row["power"] for row in payload["rows"]] == [5, 6, 7]
        for row in payload["rows"]:
            assert row["relDiff"] < 1e-6

    # 1 - e = 1.1e-16: the averages sample the true anomaly, so the closed
    # forms hold to round-off; the perihelion a (1 - e) is 1.1e-12 at a = 1e4,
    # just outside the collision guard of the perturbation, and 1.1e-16 at
    # a = 1, where only the averages, which have no guard, are defined
    @pytest.mark.parametrize("argv, a, closed, quad", [
        (["predict", "--method", "sv", "--h", "0.5"], "1e4",
         "predictedClosedForm", "predictedQuadrature"),
        (["averages"], "1e4", "closedForm", "quadrature"),
        (["averages"], "1", "closedForm", "quadrature")])
    def test_near_parabolic_shape(self, capsys, argv, a, closed, quad):
        payload = check_json(capsys, *argv, "--a", a, "--e", "0.9999999999999999")
        for row in payload.get("rows", [payload]):
            assert math.isclose(row[quad], row[closed], rel_tol=1e-12)

    def test_bench(self, capsys):
        payload = check_json(capsys, "bench", "--methods", "sv,mp",
                             "--steps", "200")
        by_method = {row["method"]: row for row in payload["rows"]}
        assert by_method["sv"]["implicitSolveCount"] == 0
        assert by_method["mp"]["implicitSolveCount"] == 200
        assert by_method["mp"]["avgNewtonIterations"] > 0.0


class TestCsvContract:
    def test_single_header_and_line_endings(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--method", "sv",
                                 "--steps", "4", "--format", "csv")
        assert code == 0
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "step,t,x1,x2,v1,v2,energy,angmom,lrlA,lrlB,omega"
        assert sum(1 for ln in lines if ln.startswith("step,")) == 1
        assert len(lines) == 6

    def test_full_precision_fields(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--method", "sv",
                               "--steps", "4", "--format", "csv")
        # a generic double must round-trip: 17 significant digits
        cell = out.splitlines()[2].split(",")[2]
        assert float(cell) == -2.9861111111111112
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_metadata_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--methods", "sv",
                                 "--h-list", "0.4,0.5", "--t-end", "45",
                                 "--format", "csv")
        assert code == 0
        assert not out.startswith("#")
        assert err.startswith("# metadata: ")
        json.loads(err.split("# metadata: ", 1)[1])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "simulate", "--method", "sv", "--steps",
                               "3", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").splitlines()[0].startswith("step,")

    def test_output_path_does_not_change_the_bytes(self, capsys, tmp_path):
        # the metadata leaves the output path out
        targets = [tmp_path / "a.json", tmp_path / "some" / "deeper" / "name.json"]
        targets[1].parent.mkdir(parents=True)
        for target in targets:
            code, _, err = run_cli(capsys, "predict", "--method", "sv", "--format", "json",
                                   "--out", str(target))
            assert code == 0, err
        assert targets[0].read_bytes() == targets[1].read_bytes()
        assert "out" not in json.loads(targets[0].read_text())["metadata"]

    def test_reruns_are_bit_identical(self, capsys):
        a = run_cli(capsys, "precession", "--method", "mp", *TWO_REVS)
        b = run_cli(capsys, "precession", "--method", "mp", *TWO_REVS)
        assert a == b


# SHA-256 of stdout as the row-by-row emitter wrote it, with the implicit
# methods' points of the radial solve
PINNED_STDOUT = [
    (["simulate", "--method", "fr", "--steps", "2000", "--format", "json"],
     "884e051a093f51a6f916fce52a3cdf20059116ad322d00b7fd5d477483ab0b5f"),
    (["simulate", "--method", "mp", "--h", "0.1", "--steps", "2000"],
     "f29de853d0b3d0cb034b23fd899efde196ec70895eb2e14071748c4e04757ac0"),
    (["error-curve", "--method", "dec", "--h", "0.1", "--t-end", "200"],
     "4084b545efe4f5c88283ea5970f0a769e4fbfc3c2cb5c527c0f4fd4376e9fb1c"),
    (["error-curve", "--method", "dec", "--h", "0.1", "--t-end", "200", "--format", "json"],
     "3e5392f3551bd22970c6bb91c641ff13442c895924512fcbec2ae8c64e839a1f"),
    # half a revolution: every measured cell is null
    (["scan", "--methods", "sv,mp", "--t-end", "10"],
     "d1d7715cccde8ba4bf87217f642eb062c726302d89f52fbc6e7ac00e42baa7f0"),
    (["scan", "--methods", "sv,mp", "--t-end", "10", "--format", "json"],
     "70996dd9096c6b8552ae8a82e1c14570551ad36a0bff11abf67abb113ea51776"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT,
                         ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_pinned_stdout(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("method", ["sv", "mp", "ml", "lc", "dec", "fr"])
def test_committed_error_curve_reproduces(tmp_path, method):
    # the run of scripts/error_curves.py, against the file it committed
    target = tmp_path / f"error_curve_{method}.csv"
    assert main(["error-curve", "--method", method, "--h", "0.1", "--t-end", "500.0",
                 "--out", str(target)]) == 0
    committed = ROOT / "results" / f"error_curve_{method}.csv"
    assert target.read_bytes() == committed.read_bytes()


class TestEmit:
    """The column-by-column emitter writes the bytes of the row-by-row one."""

    COLUMNS = ["value", "maybe", "count", "label", "rate%"]
    ROWS = [
        [math.nan, None, 0, 'say "hi"', 1],
        [math.inf, 1.5, -2, "\u03c9 = 2\u03c0/T", 2.5],
        [-math.inf, np.float64(0.1), 10 ** 17, "", -0.0],
        [-0.0, None, 7, "a, b", None],
        [5e-324, -7.25, 1, "tab\there", 3],
        [1e16, math.nan, 2, "line\nbreak", 4],
        [1e-05, 10 ** 17 + 1, 3, "\\", 5],
    ]

    @staticmethod
    def old_cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".17g")

    def table(self, n_rows, kind):
        """The first n_rows of ROWS column by column: all lists, or with the
        count column a range, or with the float column a numpy array."""
        table = [[row[i] for row in self.ROWS[:n_rows]] for i in range(len(self.COLUMNS))]
        if kind == "range":
            table[2] = range(n_rows)
        elif kind == "numpy":
            table[0] = np.array(table[0])
        return table

    @staticmethod
    def rows_of(table):
        plain = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in table]
        return list(zip(*plain))

    def emit(self, capsys, output_format, table, **kwargs):
        _emit({"format": output_format}, {"h": 0.5, "methods": ["sv"]}, self.COLUMNS,
              table, **kwargs)
        return capsys.readouterr()

    # chunks of 3 rows end before, on and after a row count; the default
    # chunk holds every table here in one
    @pytest.fixture(params=[3, None], ids=["chunk3", "chunk-default"])
    def chunk_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", request.param)

    @pytest.mark.parametrize("kind", ["list", "range", "numpy"])
    @pytest.mark.parametrize("n_rows", [0, 1, 3, 6, 7])
    def test_json_equals_the_payload_dump(self, capsys, chunk_rows, n_rows, kind):
        table = self.table(n_rows, kind)
        out, _ = self.emit(capsys, "json", table, note="x")
        payload = {"rows": [dict(zip(self.COLUMNS, row)) for row in self.rows_of(table)],
                   "metadata": {"h": 0.5, "methods": ["sv"]}, "note": "x"}
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_report_merges_the_row(self, capsys):
        out, _ = self.emit(capsys, "json", [[cell] for cell in self.ROWS[1]], report=True)
        payload = dict(zip(self.COLUMNS, self.ROWS[1]), metadata={"h": 0.5, "methods": ["sv"]})
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("kind", ["list", "range", "numpy"])
    @pytest.mark.parametrize("n_rows", [0, 1, 3, 6, 7])
    def test_csv_equals_the_cell_by_cell_text(self, capsys, chunk_rows, n_rows, kind):
        table = self.table(n_rows, kind)
        out, err = self.emit(capsys, "csv", table)
        lines = [",".join(self.COLUMNS)]
        lines += [",".join(map(self.old_cell, row)) for row in self.rows_of(table)]
        assert out == "\n".join(lines) + "\n"
        assert err == '# metadata: {"h": 0.5, "methods": ["sv"]}\n'

    # a column of strings only, as error-curve's method column, is written as
    # it is, without a _fmt call per cell
    def test_csv_string_column_skips_the_cell_formatter(self, capsys, monkeypatch):
        table = [["dec"] * 7, [row[0] for row in self.ROWS], [row[3] for row in self.ROWS]]
        want = ["method,value,label"] + [",".join(map(self.old_cell, row)) for row in zip(*table)]

        def refuse(value):
            raise AssertionError(f"_fmt called on {value!r}")

        monkeypatch.setattr(keplerlab.cli, "_fmt", refuse)
        _emit({"format": "csv"}, {"h": 0.5}, ["method", "value", "label"], table)
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    # the text held while writing is bounded by a chunk: a trajectory twice as
    # long raises the traced peak by the arrays of the run, not by its text
    # (about 80 B per step with 256-row chunks; building the whole text
    # before one write holds about 2300 B per step)
    def test_simulate_memory_does_not_grow_with_the_output(self, monkeypatch, tmp_path):
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", 256, raising=False)
        out = str(tmp_path / "out.json")

        def peak(steps):
            tracemalloc.start()
            try:
                assert main(["simulate", "--method", "sv", "--steps", str(steps),
                             "--format", "json", "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # the parser and the lazy imports are built once per process
        assert (peak(8000) - peak(4000)) / 4000 < 512


class TestConfigResolution:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "mp", "h": 0.25, "steps": 12}))
        payload = check_json(capsys, "simulate", "--config", str(cfg))
        assert payload["metadata"]["method"] == "mp"
        assert payload["metadata"]["h"] == 0.25
        assert len(payload["rows"]) == 13

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "mp", "steps": 12}))
        payload = check_json(capsys, "simulate", "--config", str(cfg),
                             "--method", "sv")
        assert payload["metadata"]["method"] == "sv"
        assert len(payload["rows"]) == 13

    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        # the parser is built once per process: a config value must not
        # become the next call's default, and usage errors still exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.3}))
        assert check_json(capsys, "predict", "--method", "sv",
                          "--config", str(cfg))["metadata"]["h"] == 0.3
        assert check_json(capsys, "predict", "--method", "sv")["metadata"]["h"] == DEFAULT_H
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--method", "sv", "--h", "abc"])
        _, err = capsys.readouterr()
        assert excinfo.value.code == 1
        assert err.startswith("usage: keplerlab predict")
        assert "argument --h" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sv", "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    # a JSON value no flag text could stand for is refused, naming its key:
    # booleans for numbers, non-text values for pairs and lists, and pairs
    # with a non-finite component.  a and e are predict's, each given beside a
    # valid partner; the lists are scan's
    @pytest.mark.parametrize("key, value", [
        ("format", "xml"), ("steps", 2.7), ("h", None), ("h", True), ("x0", 5),
        ("x0", True), ("x0", {"a": 1}), ("x0", "nan,0"), ("x0", "inf,0"),
        ("v0", [0.0, math.nan]), ("a", True), ("e", False),
        ("h_list", 0.5), ("methods", 5)])
    def test_config_values_are_validated_like_flags(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        settings, argv = {key: value}, ["simulate", "--method", "sv"]
        if key in ("a", "e"):
            settings, argv = {"a": 1.0, "e": 0.5, key: value}, ["predict", "--method", "sv"]
        elif key in ("h_list", "methods"):
            argv = ["scan"]
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: config key {key!r}: ")

    # a list stands for comma-separated text only where a flag takes a list or
    # a pair (h_list, methods, x0, v0); for a single value it is refused, not
    # run as its one item or joined into "sv,mp"
    @pytest.mark.parametrize("argv, key, value, got", [
        (["predict", "--method", "sv"], "h", [0.5], "expected a number, got [0.5]"),
        (["simulate", "--method", "sv", "--h", "0.1"], "steps", [10],
         "expected a number, got [10]"),
        (["simulate", "--steps", "2"], "method", ["sv", "mp"],
         'expected a string, got ["sv", "mp"]')])
    def test_config_list_for_a_single_value(self, capsys, tmp_path, argv, key, value, got):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"error: config key {key!r}: {got}\n"

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--method", "sv",
                               "--config", str(cfg))
        assert code == 1

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "simulate", "--method", "sv",
                               "--config", str(cfg))
        assert code == 1

    def test_t_end_overrides_steps(self, capsys):
        payload = check_json(capsys, "simulate", "--method", "sv",
                             "--h", "0.5", "--steps", "999", "--t-end", "5")
        assert payload["metadata"]["steps"] == 10
        assert len(payload["rows"]) == 11

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_error_curve_steps_sets_the_step_count(self, capsys, tmp_path, via):
        argv = ["--method", "sv", "--h", "0.5"]
        if via == "flag":
            argv += ["--steps", "7"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"steps": 7}))
            argv += ["--config", str(cfg)]
        payload = check_json(capsys, "error-curve", *argv)
        assert len(payload["rows"]) == 8
        assert payload["metadata"]["steps"] == 7
        assert "tEnd" not in payload["metadata"]
        # --t-end still overrides --steps
        payload = check_json(capsys, "error-curve", *argv, "--t-end", "2")
        assert len(payload["rows"]) == 5
        assert payload["metadata"]["tEnd"] == 2.0

    def test_error_curve_spans_t_500_without_steps_or_t_end(self, capsys):
        code, out, err = run_cli(capsys, "error-curve", "--method", "sv", "--h", "0.5")
        assert code == 0, err
        assert len(out.splitlines()) == 1002
        meta = json.loads(err.split("# metadata: ", 1)[1])
        assert (meta["steps"], meta["tEnd"]) == (1000, 500.0)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_scan_step_larger_than_the_span_is_rejected(self, capsys, tmp_path, via):
        argv = ["scan", "--methods", "sv", "--t-end", "45"]
        if via == "flag":
            argv.append("--h-list=0.5,100")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"h_list": [0.5, 100]}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == ("error: --h-list entry 100.0 exceeds the scan span 45.0 "
                       "(--t-end, or 100 revolutions)\n")

    @pytest.mark.parametrize("command", list(NON_DEFAULT_SETTINGS))
    def test_config_writes_the_same_bytes_as_flags(self, capsys, tmp_path, command):
        target = tmp_path / "out.txt"
        values = dict(NON_DEFAULT_SETTINGS[command], out=str(target))
        assert {"--" + k.replace("_", "-") for k in values} | {"--config"} == \
            PINNED_FLAGS[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))

        def run(*argv):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 0, err
            text = target.read_text()
            if command == "bench":  # the wall-clock column is the one nondeterminism
                text = re.sub(r"^(\w+,\d+),[^,]+,", r"\1,W,", text, flags=re.M)
            return out, err, text

        flags = ["--{}={}".format(k.replace("_", "-"),
                                  ",".join(map(str, v)) if isinstance(v, list) else v)
                 for k, v in values.items()]
        assert run("--config", str(cfg)) == run(*flags)

    # the Newton budget is a constant of the integrators, not a setting
    @pytest.mark.parametrize("command", list(PINNED_FLAGS))
    @pytest.mark.parametrize("key", ["tol", "max_iter"])
    def test_no_newton_settings(self, capsys, tmp_path, command, key):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "5"])
        _, err = capsys.readouterr()
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag} 5" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 5}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert key in err

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_t_end_is_a_configuration_error(self, capsys, tmp_path,
                                                       command, value, via):
        argv = [command, "--method" if command == "simulate" else "--methods", "sv"]
        if via == "flag":
            argv += ["--t-end", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"t_end": value}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "t-end" in err

    # h divides t-end into a step count before any integration runs, and
    # predict's schema requires a positive h
    @pytest.mark.parametrize("command, key, value", [
        *[(command, "h", value) for command in ("simulate", "error-curve", "predict")
          for value in (0.0, math.nan, math.inf)],
        *[("scan", "h_list", [0.5, value]) for value in (0.0, math.nan, math.inf)],
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_step_size_must_be_positive_and_finite(self, capsys, tmp_path,
                                                   command, key, value, via):
        argv = [command, "--method" if command != "scan" else "--methods", "sv"]
        if command != "predict":
            argv += ["--t-end", "5"]
        if via == "flag":
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv.append("--{}={}".format(key.replace("_", "-"), text))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: {} ".format(key.replace("_", "-")))
        assert "must be positive and finite" in err


@pytest.fixture
def integrated(monkeypatch):
    """The step of every integrate call the CLI makes, in order."""
    steps = []

    def integrate(method, x0, v0, h, *args):
        steps.append(h)
        return keplerlab.integrate(method, x0, v0, h, *args)

    monkeypatch.setattr(keplerlab.cli, "integrate", integrate)
    return steps


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run_cli(capsys, "predict", "--method", "sv")
        assert code == 0

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--method", "rk4")
        assert code == 1
        assert "rk4" in err

    def test_missing_method(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1

    def test_unbound_orbit(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--method", "sv",
                               "--x0", "3,0", "--v0", "0,1")
        assert code == 1

    # malformed pair and list values are argparse type errors, so they exit
    # like bad flags
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--method", "sv", "--x0", "3;0"],
         "expected two comma-separated finite reals, got '3;0'"),
        (["simulate", "--method", "sv", "--x0", "a,b"],
         "expected two comma-separated finite reals, got 'a,b'"),
        (["simulate", "--method", "sv", "--x0", "nan,0"],
         "argument --x0: expected two comma-separated finite reals, got 'nan,0'"),
        (["simulate", "--method", "sv", "--x0", "inf,0"],
         "argument --x0: expected two comma-separated finite reals, got 'inf,0'"),
        (["simulate", "--method", "sv", "--v0=0,-inf"],
         "argument --v0: expected two comma-separated finite reals, got '0,-inf'"),
        (["scan", "--h-list", "0.5,x"], "expected comma-separated reals, got '0.5,x'"),
        (["scan", "--h-list", ","], "argument --h-list: empty list"),
        (["scan", "--methods", ","], "argument --methods: empty method list")])
    def test_bad_pair_syntax(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        _, err = capsys.readouterr()
        assert excinfo.value.code == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--method", "sv", "--steps", "0"], "steps must be >= 1, got 0"),
        (["simulate", "--method", "sv", "--steps", "-3"], "steps must be >= 1, got -3"),
        (["scan", "--methods", "sv", "--h-list", "0.5"], "scan needs at least 2 step sizes"),
        (["simulate", "--method", "sv", "--config", "no-such-dir/config.json"],
         "cannot read config file 'no-such-dir/config.json'")])
    def test_refused_settings_exit_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_bad_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--method", "sv", "--no-such-flag"])
        capsys.readouterr()
        assert excinfo.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        capsys.readouterr()
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (["--method", "mp", "--h", "5"], "mp failed computing point 1: initialization: "),
        (["--method", "sv", "--h", "1e200", "--steps", "3"],
         "sv failed computing point 1: the state is no longer finite"),
        # |B|^3 < kappa: the radial start lies past the origin, with no root
        (["--method", "mp", "--h", "40", "--steps", "10"],
         "mp failed computing point 1: initialization: the step has no solution: "
         "|(q + C)/2| = 9.48683 is at or below the fold 13.9248")], ids=["mp", "sv", "mp-no-root"])
    def test_numerical_failure_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_shape_flags_must_pair(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--method", "sv", "--a", "2.0")
        assert code == 1

    # a float power of an extreme semi-major axis overflows, or underflows to
    # a zero divisor, in the elements, the closed forms or the quadrature;
    # at a = 1e-308 near e = 1, L^2 underflows to 0
    @pytest.mark.parametrize("argv, a, e", [
        *[(["predict", "--method", "sv", "--h", "0.5"], a, "0.5")
          for a in ("1e60", "1e100", "1e200", "1e300")],
        *[(["averages"], a, "0.5")
          for a in ("1e-300", "1e-200", "1e-100", "1e40", "1e60", "1e100", "1e200", "1e300")],
        (["predict", "--method", "sv", "--h", "0.5"], "1e-308", "0.9999999999999999"),
        (["averages"], "1e-308", "0.9999999999999999")])
    def test_extreme_semi_major_axis_exits_two(self, capsys, argv, a, e):
        code, out, err = run_cli(capsys, *argv, "--a", a, "--e", e)
        assert (code, out) == (2, "")
        assert err == f"error: a = {float(a)}, e = {e} is beyond the floating-point range\n"

    # a state whose period 2 pi a^1.5 is not a float is refused where its
    # elements are derived, so every subcommand names it before any step
    @pytest.mark.parametrize("argv", [
        ["simulate", "--method", "sv"], ["precession", "--method", "sv"], ["averages"],
        ["error-curve", "--method", "sv"], ["predict", "--method", "sv"], ["scan"],
        ["bench"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("x0, v0, a, e", [
        ("2e205,0", "0,2.23606797749979e-103", "2.0000000000000005e+205",
         "2.220446049250313e-16"),
        ("1e210,0", "0,1e-105", "9.999999999999998e+209", "2.220446049250313e-16"),
        ("1e250,0", "0,1e-125", "1e+250", "0.0")], ids=["2e205", "1e210", "1e250"])
    def test_state_with_overflowing_period_exits_two(self, capsys, argv, x0, v0, a, e):
        code, out, err = run_cli(capsys, *argv, "--x0", x0, "--v0", v0)
        assert (code, out) == (2, "")
        assert err == f"error: a = {a}, e = {e} is beyond the floating-point range\n"

    def test_perihelion_inside_the_collision_guard_exits_two(self, capsys):
        # a (1 - e) = 1.1e-16 at a = 1, e = 1 - 1.1e-16
        code, out, err = run_cli(capsys, "predict", "--method", "sv", "--h", "0.5",
                                 "--a", "1", "--e", "0.9999999999999999")
        assert (code, out) == (2, "")
        assert err == "error: |x| = 1.110e-16 inside the collision guard 1.000e-12\n"

    # on the default orbit the rate overflows from h = 1e154 on
    @pytest.mark.parametrize("method, h", [("sv", "1e200"), ("ml", "1e154")])
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_overflowing_rate_exits_two(self, capsys, method, h, output_format):
        code, out, err = run_cli(capsys, "predict", "--method", method, "--h", h,
                                 "--format", output_format)
        assert (code, out) == (2, "")
        assert err == f"error: {method} precession rate at h = {float(h):g} is not finite\n"

    # above MAX_STEPS = 10^6 a run is refused before it steps (one that
    # stepped would raise the stub kernels' KernelReached out of main): a scan
    # cell reads null with its warning, any other run exits 1.  A t-end / h
    # beyond the float range, an inf step count, is refused in the same words.
    def test_scan_cell_above_the_step_bound_is_null(self, capsys, stub_kernels):
        code, out, err = run_cli(capsys, "scan", "--format", "json", "--methods", "mp",
                                 "--h-list", "0.5,1e-300", "--t-end", "45")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["measuredRate"] for row in rows] == [self.FINE_ROWS["mp"][0], None]
        assert err == ("warning: mp at h=1e-300 failed: 4.5e+301 steps of h = 1e-300 "
                       "exceed the bound MAX_STEPS = 1000000\n")

    @pytest.mark.parametrize("argv, steps, h", [
        (["simulate", "--method", "sv", "--h", "1e-300", "--t-end", "1"], "1e+300", "1e-300"),
        (["simulate", "--method", "fr", "--steps", "1000001"], "1000001", "0.5"),
        (["simulate", "--method", "sv", "--h", "5e-324", "--t-end", "1"], "inf",
         "4.94066e-324"),
        (["precession", "--method", "mp", "--h", "1e-300", "--t-end", "100"], "1e+302",
         "1e-300"),
        (["error-curve", "--method", "dec", "--h", "1e-300"], "5e+302", "1e-300"),
        (["bench", "--methods", "sv,fr", "--steps", "1000001"], "1000001", "0.1")],
        ids=["simulate", "simulate-steps", "simulate-inf", "precession", "error-curve",
             "bench"])
    def test_run_above_the_step_bound_exits_one(self, capsys, stub_kernels, argv, steps, h):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {steps} steps of h = {h} exceed the bound MAX_STEPS = 1000000\n"

    def test_scan_failed_cell_reports_null_and_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--format", "json",
                                 "--methods", "mp", "--h-list", "0.5,5",
                                 "--t-end", "45")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("scan"))
        rates = {row["h"]: row["measuredRate"] for row in payload["rows"]}
        assert rates[0.5] is not None
        assert rates[5.0] is None
        assert "failed" in err

    # under 8 samples per revolution the LRL angle aliases (h = 15, under 2
    # samples per revolution, reads 0.587 against 0.069 at h = 0.5), so both
    # coarse steps are refused before they are integrated; the span aligns to
    # the coarsest step the fit accepts, so a refused step leaves the span and
    # the h = 0.5 row alone.  An implicit method gets the same refusal, not the
    # failure that integrating h = 40 ends in.
    FINE_ROWS = {"sv": (0.06920028862564427, 0.06737048229578152),
                 "mp": (-0.15895305852084202, -0.13474096459156304)}

    @pytest.mark.parametrize("method, h_list, samples", [
        ("sv", "0.5,40", "0.50"), ("sv", "0.5,15", "1.32"), ("mp", "0.5,40", "0.50")])
    def test_scan_refuses_a_coarse_step(self, capsys, integrated, method, h_list, samples):
        code, out, err = run_cli(capsys, "scan", "--format", "json", "--methods", method,
                                 "--h-list", h_list, "--t-end", "45")
        assert code == 0
        assert integrated == [0.5]
        payload = json.loads(out)
        assert payload["metadata"]["tSpan"] == 45.0
        fine, coarse = payload["rows"]
        measured, predicted = self.FINE_ROWS[method]
        assert fine == {"method": method, "h": 0.5, "measuredRate": measured,
                        "predictedRate": predicted}
        assert coarse["measuredRate"] is None
        assert err == (f"warning: {method} at h={float(h_list.split(',')[1]):g} failed: "
                       f"trajectory has {samples} samples per revolution (T / h); "
                       "need at least 8\n")

    # 10 time units are half a revolution of the default orbit, so no cell
    # can be measured; each is refused before it is integrated
    def test_scan_refuses_a_short_span_before_integrating(self, capsys, integrated):
        code, out, err = run_cli(capsys, "scan", "--methods", "sv,mp", "--t-end", "10")
        assert code == 0
        assert integrated == []
        assert err.count("covers 0.50 revolutions; need at least 2") == 8

    # precession asks the same gate before it integrates: a run too short to
    # measure is refused with measure_precession's message, even one whose
    # implicit initialization would fail numerically
    @pytest.mark.parametrize("argv, revolutions", [
        (["--method", "mp", "--h", "5", "--steps", "3"], "0.75"),
        (["--method", "sv", "--h", "0.5", "--t-end", "30"], "1.51")])
    def test_precession_refuses_a_short_run_before_integrating(self, capsys, integrated,
                                                               argv, revolutions):
        code, out, err = run_cli(capsys, "precession", *argv)
        assert code == 1
        assert out == ""
        assert integrated == []
        assert err == f"error: trajectory covers {revolutions} revolutions; need at least 2\n"


class TestContract:
    """The flags and metadata keys of every subcommand, pinned."""

    def test_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {flag for action in p._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, p in sub.choices.items()}
        assert got == PINNED_FLAGS

    @pytest.mark.parametrize("command", list(PINNED_METADATA))
    def test_metadata_keys(self, capsys, command):
        argv, keys = PINNED_METADATA[command]
        payload = check_json(capsys, command, *argv)
        assert set(payload["metadata"]) == keys


def test_readme_cli_examples_parse():
    # every `keplerlab ...` line of the README's CLI code block, comment dropped
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0] for line in block.splitlines()
                if line.startswith("keplerlab ")]
    assert len(examples) == 8
    for line in examples:
        build_parser().parse_args(shlex.split(line)[1:])


def run_module(*argv):
    """`python -m keplerlab`, importing the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "keplerlab", *argv],
                          capture_output=True, text=True, env=env)


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = run_module("predict", "--method", "sv")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["method"] == "sv"

    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for sub in ("simulate", "precession", "scan", "error-curve",
                    "predict", "averages", "bench"):
            assert sub in proc.stdout
