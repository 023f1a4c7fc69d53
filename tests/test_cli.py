import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import threading
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
}

_RUN_METADATA = {"format", "h", "maxIterations", "method", "steps", "tolerance", "v0", "work",
                 "x0"}
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

    # the metadata carries the run's own counters, in JSON and on the CSV
    # metadata line alike
    @pytest.mark.parametrize("method", [m.value for m in keplerlab.MethodId])
    def test_simulate_work_is_the_runs(self, capsys, method):
        argv = ["--method", method, "--h", "0.2", "--steps", "50"]
        payload = check_json(capsys, "simulate", *argv)
        x0, v0 = (keplerlab.PlanarVector(*s) for s in (keplerlab.cli.DEFAULT_X0,
                                                        keplerlab.cli.DEFAULT_V0))
        stats = keplerlab.integrate(keplerlab.MethodId(method), x0, v0, 0.2, 50).stats
        assert payload["metadata"]["work"] == {
            "gradientEvaluations": stats.gradient_evaluations,
            "implicitSolves": stats.implicit_solves,
            "newtonIterations": stats.newton_iterations}
        code, _, err = run_cli(capsys, "simulate", *argv, "--format", "csv")
        assert code == 0
        meta = json.loads(err.split("# metadata: ", 1)[1])
        assert meta == dict(payload["metadata"], format="csv")


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
     "2b82220e5771380cf0a36507b15763352b77e4e502edfd2505fa26749d9ec688"),
    (["simulate", "--method", "mp", "--h", "0.1", "--steps", "2000"],
     "f29de853d0b3d0cb034b23fd899efde196ec70895eb2e14071748c4e04757ac0"),
    (["error-curve", "--method", "dec", "--h", "0.1", "--t-end", "200"],
     "4084b545efe4f5c88283ea5970f0a769e4fbfc3c2cb5c527c0f4fd4376e9fb1c"),
    (["error-curve", "--method", "dec", "--h", "0.1", "--t-end", "200", "--format", "json"],
     "b20cbb815e9306ac417f46a0463da2db38a038526bb091b24d83c6b2faeb2599"),
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


# the JSON runs above as they were pinned before the metadata carried "work":
# dropping the key and dumping the payload as the emitter lays it out gives
# the earlier bytes, so the counters are the only change
PINNED_STDOUT_WITHOUT_WORK = [
    (["simulate", "--method", "fr", "--steps", "2000", "--format", "json"],
     "884e051a093f51a6f916fce52a3cdf20059116ad322d00b7fd5d477483ab0b5f"),
    (["error-curve", "--method", "dec", "--h", "0.1", "--t-end", "200", "--format", "json"],
     "3e5392f3551bd22970c6bb91c641ff13442c895924512fcbec2ae8c64e839a1f"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT_WITHOUT_WORK,
                         ids=[" ".join(a) for a, _ in PINNED_STDOUT_WITHOUT_WORK])
def test_pinned_stdout_without_work(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    del payload["metadata"]["work"]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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

    @staticmethod
    def slices(table):
        """The table as _emit takes it: its row count and its column slices."""
        return len(table[0]), lambda lo, hi: [column[lo:hi] for column in table]

    def emit(self, capsys, output_format, table, **kwargs):
        _emit({"format": output_format}, {"h": 0.5, "methods": ["sv"]}, self.COLUMNS,
              *self.slices(table), **kwargs)
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
        out, _ = self.emit(capsys, "json", table)
        payload = {"rows": [dict(zip(self.COLUMNS, row)) for row in self.rows_of(table)],
                   "metadata": {"h": 0.5, "methods": ["sv"]}}
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
        _emit({"format": "csv"}, {"h": 0.5}, ["method", "value", "label"], *self.slices(table))
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    # this process reads the child's text _BLOCK bytes at a time, and a read
    # that ends inside a character does not split it
    def test_a_read_inside_a_character_keeps_it_whole(self, capsys, monkeypatch, forks):
        labels = ["\u03c9", "2\u03c0", "\u20ac", "\U0001d11e", "a\u00e9", "\u03c9\u03c0", "x"]
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", 3)
        monkeypatch.setattr(keplerlab.cli, "_BLOCK", 1)
        report_cpus(monkeypatch, 2)
        _emit({"format": "csv"}, {"h": 0.5}, ["label"], *self.slices([labels]))
        assert capsys.readouterr().out == "\n".join(["label", *labels]) + "\n"
        assert len(forks) == 1

    # numpy columns of each kind are written as their Python scalars are (float32
    # widened to a double), and a float array with NaN, inf and -inf in it as
    # json.dumps writes those; with chunks of 3 the last chunk's floats are finite
    NUMPY_COLUMNS = {
        "f32": np.array([0.1, -2.5, 1e-30, 3.0], dtype=np.float32),
        "i64": np.array([0, -7, 2 ** 62, 5], dtype=np.int64),
        "flag": np.array([True, False, True, False]),
        "nonfinite": np.array([math.nan, math.inf, -math.inf, 0.5]),
    }

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_numpy_columns_write_their_python_scalars(self, capsys, chunk_rows, output_format):
        names, table = list(self.NUMPY_COLUMNS), list(self.NUMPY_COLUMNS.values())
        rows = self.rows_of(table)
        if output_format == "json":
            want = json.dumps({"rows": [dict(zip(names, row)) for row in rows],
                               "metadata": {"h": 0.5}}, indent=2, sort_keys=True)
        else:
            want = "\n".join([",".join(names)] + [",".join(map(self.old_cell, row))
                                                   for row in rows])
        _emit({"format": output_format}, {"h": 0.5}, names, *self.slices(table))
        assert capsys.readouterr().out == want + "\n"

    # a range, an integer array and a finite float array are written through
    # the row template as they are: no json.dumps of their cells in JSON, no
    # _fmt call in CSV
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_numeric_arrays_skip_the_encoder_and_the_cell_formatter(self, capsys, monkeypatch,
                                                                     output_format):
        names = ["step", "t", "count"]
        table = [range(7), np.linspace(-1.0, 1e16, 7), np.arange(7, dtype=np.int64) - 3]
        _emit({"format": output_format}, {"h": 0.5}, names, *self.slices(table))
        want = capsys.readouterr()
        dumps = json.dumps

        def refuse_list(obj, **kwargs):
            assert not isinstance(obj, list), f"json.dumps called on {obj!r}"
            return dumps(obj, **kwargs)

        def refuse(value):
            raise AssertionError(f"_fmt called on {value!r}")

        monkeypatch.setattr(keplerlab.cli.json, "dumps", refuse_list)
        monkeypatch.setattr(keplerlab.cli, "_fmt", refuse)
        _emit({"format": output_format}, {"h": 0.5}, names, *self.slices(table))
        assert capsys.readouterr() == want

    # the columns and the text held while writing are bounded by a chunk: a
    # run twice as long raises the traced peak by the trajectory's arrays, 16 B
    # per step (32 B for fr, whose velocities are stored), plus 8 B of margin.
    # Deriving every column of the run before writing held 90 to 150 B per step
    @staticmethod
    def peak_growth(monkeypatch, tmp_path, argv):
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", 256, raising=False)
        out = str(tmp_path / "out")

        def peak(steps):
            tracemalloc.start()
            try:
                assert main([*argv, "--steps", str(steps), "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the parser and the lazy imports are built once per process
        return (peak(8000) - peak(4000)) / 4000

    @pytest.mark.parametrize("argv, bound", [
        (["--method", "sv", "--format", "json"], 24),
        (["--method", "fr", "--format", "csv"], 40)], ids=["sv-json", "fr-csv"])
    def test_simulate_memory_does_not_grow_with_the_output(self, monkeypatch, tmp_path, argv,
                                                           bound):
        assert self.peak_growth(monkeypatch, tmp_path, ["simulate", *argv]) < bound

    def test_error_curve_memory_does_not_grow_with_the_output(self, monkeypatch, tmp_path):
        assert self.peak_growth(monkeypatch, tmp_path, ["error-curve", "--method", "sv"]) < 24

    # precession holds the trajectory and the LRL angle, 8 B per sample, which
    # it derives and unwraps a chunk of rows at a time and fits in place with
    # one grid of 8 B per sample: sv reads 31 B per step and fr 47 B
    # (velocities stored); an unwrap and a fit on fresh arrays read 71 and 87.
    # Small angle and quadrature buffers keep their fixed peaks from
    # hiding that growth at 4000 steps
    @pytest.mark.parametrize("method, bound", [("sv", 40), ("fr", 56)])
    def test_precession_memory_holds_the_angle_not_every_observable(self, monkeypatch,
                                                                    tmp_path, method, bound):
        monkeypatch.setattr(keplerlab.analysis, "_CHUNK_ROWS", 256)
        monkeypatch.setattr(keplerlab.theory, "DEFAULT_AVERAGE_NODES", 64)
        argv = ["precession", "--method", method]
        assert self.peak_growth(monkeypatch, tmp_path, argv) < bound


_DEFAULT_CHUNK_ROWS = keplerlab.cli._CHUNK_ROWS


@pytest.fixture
def forks(monkeypatch):
    """The pids of the formatting children that _chunks forks, in order."""
    pids, fork = [], keplerlab.cli._fork

    def counted(text):
        child = fork(text)
        if child is not None:
            pids.append(child[0])
        return child

    monkeypatch.setattr(keplerlab.cli, "_fork", counted)
    return pids


def report_cpus(monkeypatch, n):
    """Make the CPU check of the two-process write report n CPUs."""
    monkeypatch.setattr(keplerlab.cli, "_cpus", lambda: n, raising=False)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the suite pins one BLAS thread (conftest.py): a dot product that OpenBLAS
# would split across its pool starts no thread beside this one, so on Python
# 3.12+, where _fork refuses beside any thread, the two-process write runs
def test_a_large_dot_product_starts_no_thread():
    samples = np.arange(31790.0)
    assert np.dot(samples, samples) > 0
    assert len(os.listdir("/proc/self/task")) == 1


class TestStreamedColumns:
    """simulate and error-curve derive their columns a chunk of rows at a time,
    each row reading its neighbours across the chunk's edges: any chunk size
    writes the bytes of one chunk that holds the whole run, to stdout and to
    --out, with every second chunk derived and formatted by a child process
    or not."""

    COMMANDS = [["simulate", "--method", m] for m in ("sv", "mp", "dec", "fr")] + [
        ["error-curve", "--method", m] for m in ("sv", "dec")]
    # (chunk rows, steps): steps + 1 rows end before, on and after a chunk edge
    CASES = [(1, 1), (1, 2), (1, 6), (3, 1), (3, 4), (3, 5), (3, 6),
             *((_DEFAULT_CHUNK_ROWS, _DEFAULT_CHUNK_ROWS + k) for k in (-2, -1, 0))]

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[::2]))
    def test_any_chunk_writes_the_bytes_of_one(self, capsys, monkeypatch, tmp_path, forks, argv,
                                               output_format):
        out = tmp_path / "out"
        for chunk_rows, steps in self.CASES:
            run = [*argv, "--h", "0.1", "--steps", str(steps), "--format", output_format]
            monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", 10**9)
            code, text, err = want = run_cli(capsys, *run)
            monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", chunk_rows)
            for cpus in (2, 1):
                report_cpus(monkeypatch, cpus)
                forked = len(forks)
                assert run_cli(capsys, *run) == want, (chunk_rows, steps, cpus)
                assert run_cli(capsys, *run, "--out", str(out)) == (code, "", err)
                assert out.read_text(encoding="utf-8") == text, (chunk_rows, steps, cpus)
                two_chunks = cpus == 2 and steps + 1 > chunk_rows
                assert len(forks) - forked == (2 if two_chunks else 0), (chunk_rows, steps)
                assert_no_child()


class TestTwoProcessWrite:
    """A table of two or more chunks is written by this process and a forked
    child, which formats every second chunk; the README's failure contract
    and the exit codes are those of one process, and no child outlives _emit."""

    ROWS = 3  # rows per chunk; 15 rows make 5 chunks
    RUN = ["--method", "sv", "--h", "0.1", "--steps", "14"]

    @staticmethod
    def first_rows(text, output_format, n):
        """The output up to the end of row n - 1: the header and n rows."""
        if output_format == "csv":
            return "".join(text.splitlines(keepends=True)[:1 + n])
        return ",\n    {\n".join(text.split(",\n    {\n")[:n])

    # a numerical failure while chunk k is derived exits 2 after the header
    # and chunks 0 to k - 1 are written, whichever process formats them
    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("command, derive", [("simulate", "trajectory_arrays"),
                                                 ("error-curve", "error_curve")])
    def test_failure_while_deriving_a_chunk_writes_the_chunks_before(
            self, capsys, monkeypatch, command, derive, output_format, cpus):
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", self.ROWS)
        report_cpus(monkeypatch, cpus)
        argv = [command, *self.RUN, "--format", output_format]
        code, full, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_no_child()
        derived = getattr(keplerlab.analysis, derive)
        for k in (1, 2, 3):
            def failing(traj, lo, hi, k=k):
                if lo == k * self.ROWS:
                    raise keplerlab.NumericalFailure(f"chunk {k} failed")
                return derived(traj, lo, hi)

            monkeypatch.setattr(keplerlab.analysis, derive, failing)
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and err.endswith(f"error: chunk {k} failed\n"), err
            assert out == self.first_rows(full, output_format, k * self.ROWS), k
            assert_no_child()

    # a child that fails exits non-zero, and so does the write, after this
    # process has derived and written every chunk the child did not send: all
    # rows, and JSON without the lines that close the payload
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_failing_child_fails_the_write(self, capsys, monkeypatch, forks, output_format):
        report_cpus(monkeypatch, 2)
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", self.ROWS)
        argv = ["error-curve", *self.RUN, "--format", output_format]
        code, full, _ = run_cli(capsys, *argv)
        assert code == 0
        del forks[:]
        parent = os.getpid()
        name = f"_{output_format}_field"
        field = getattr(keplerlab.cli, name)

        def child_fails(column):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return field(column)

        monkeypatch.setattr(keplerlab.cli, name, child_fails)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and "every second chunk" in err
        assert out == (full if output_format == "csv" else full[:full.rindex("\n  ]")])
        assert len(forks) == 1
        assert_no_child()

    # a child that stops inside a chunk fails the write at that chunk, which
    # this process has copied through only in part, and leaves no fd open
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_child_stopping_inside_a_chunk_fails_the_write(self, capsys, monkeypatch, forks,
                                                           output_format):
        report_cpus(monkeypatch, 2)
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", self.ROWS)
        monkeypatch.setattr(keplerlab.cli, "_BLOCK", 4)
        argv = ["simulate", *self.RUN, "--format", output_format]
        code, full, _ = run_cli(capsys, *argv)
        assert code == 0
        del forks[:]
        fds = len(os.listdir("/proc/self/fd"))

        class HalfWrite:  # the child's pipe: half of the first write, then the child is gone
            def __init__(self, up):
                self.up = up

            def write(self, data):
                self.up.write(data[:len(data) // 2])
                self.up.flush()
                os._exit(1)

        fork = keplerlab.cli._fork
        monkeypatch.setattr(keplerlab.cli, "_fork",
                            lambda send: fork(lambda up: send(HalfWrite(up))))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and "stopped" in err, err
        assert len(self.first_rows(full, output_format, self.ROWS)) < len(out) < len(full)
        assert full.startswith(out)
        assert len(forks) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_child()

    # the write stays in one process where os.fork is missing or fails, where
    # the process may run on one CPU, while another Python thread runs, and
    # on Python 3.12+ while any other thread runs (os.fork warns there);
    # before 3.12 a thread outside Python, as OpenBLAS's pool, does not stop
    # the fork
    @pytest.mark.parametrize("case, forked", [
        ("no-fork", 0), ("fork-fails", 0), ("one-cpu", 0), ("thread", 0),
        ("os-thread-3.12", 0), ("os-thread-3.11", 1)])
    def test_one_process_unless_forking_is_safe(self, capsys, monkeypatch, forks, case, forked):
        monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", self.ROWS)
        report_cpus(monkeypatch, 1 if case == "one-cpu" else 2)
        want = run_cli(capsys, "simulate", *self.RUN)
        del forks[:]
        fds = len(os.listdir("/proc/self/fd"))
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        if case == "fork-fails":
            def no_process():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_process)
        if case.startswith("os-thread"):
            listdir = os.listdir
            monkeypatch.setattr(os, "listdir", lambda path: (
                ["1", "2"] if path == "/proc/self/task" else listdir(path)))
            monkeypatch.setattr(sys, "version_info", (3, int(case[-2:]), 0, "final", 0))
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        if case == "thread":
            waiter.start()
        try:
            assert run_cli(capsys, "simulate", *self.RUN) == want
        finally:
            stop.set()
            if case == "thread":
                waiter.join()
        assert len(forks) == forked
        assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_child()


# each process derives the chunks that it formats: this one chunks 0, 2 and 4
# of 5 where a child takes 1 and 3, in order, and all five where it writes alone
@pytest.mark.parametrize("cpus, derived", [(2, [0, 2, 4]), (1, [0, 1, 2, 3, 4])])
@pytest.mark.parametrize("command, derive", [("simulate", "trajectory_arrays"),
                                             ("error-curve", "error_curve")])
def test_this_process_derives_only_its_own_chunks(capsys, monkeypatch, command, derive, cpus,
                                                  derived):
    rows = TestTwoProcessWrite.ROWS
    monkeypatch.setattr(keplerlab.cli, "_CHUNK_ROWS", rows)
    report_cpus(monkeypatch, cpus)
    parent, starts, spied = os.getpid(), [], getattr(keplerlab.analysis, derive)

    def spy(traj, lo, hi):
        if os.getpid() == parent:
            starts.append(lo)
        return spied(traj, lo, hi)

    monkeypatch.setattr(keplerlab.analysis, derive, spy)
    assert run_cli(capsys, command, *TestTwoProcessWrite.RUN)[0] == 0
    assert starts == [k * rows for k in derived]
    assert_no_child()


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

    @pytest.mark.parametrize("key, value, message", [
        ("h_list", [0.5, 0.25, 0.5], "--h-list repeats the entry 0.5"),
        ("methods", ["sv", "mp", "sv"], "--methods repeats the entry sv")])
    def test_scan_repeated_config_entry_is_rejected(self, capsys, tmp_path, key, value,
                                                    message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "scan", "--t-end", "45", "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {message}\n")

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
            return out, err, target.read_text()

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
        (["scan", "--methods", "sv", "--h-list", "0.5,0.25,0.50"],
         "error: --h-list repeats the entry 0.5\n"),
        (["scan", "--methods", "sv,mp,SV"], "error: --methods repeats the entry sv\n"),
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

    # timings come from perfbench, and work counters from the run metadata
    def test_bench_is_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        _, err = capsys.readouterr()
        assert excinfo.value.code == 1
        assert "invalid choice: 'bench'" in err

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
        ["error-curve", "--method", "sv"], ["predict", "--method", "sv"], ["scan"]],
        ids=lambda argv: argv[0])
    @pytest.mark.parametrize("x0, v0, a, e", [
        ("2e205,0", "0,2.23606797749979e-103", "2.0000000000000005e+205",
         "2.220446049250313e-16"),
        ("1e210,0", "0,1e-105", "9.999999999999998e+209", "2.220446049250313e-16"),
        ("1e250,0", "0,1e-125", "1e+250", "0.0")], ids=["2e205", "1e210", "1e250"])
    def test_state_with_overflowing_period_exits_two(self, capsys, argv, x0, v0, a, e):
        code, out, err = run_cli(capsys, *argv, "--x0", x0, "--v0", v0)
        assert (code, out) == (2, "")
        assert err == f"error: a = {a}, e = {e} is beyond the floating-point range\n"

    # L = 1e-200 gives b = 0, 1e-9 gives e = 1.0, and 1e-6 an e that no longer
    # gives b back: each is refused as radial, naming L, with no traceback
    @pytest.mark.parametrize("argv, L", [
        *[(["simulate", "--method", "sv", "--h", "0.1", "--steps", "10", f"--v0=0.0,{v}"], L)
          for v, L in (("1e-200", "1e-200"), ("1e-9", "1e-09"), ("1e-6", "1e-06"))],
        (["predict", "--method", "sv", "--v0=0.0,1e-200"], "1e-200")],
        ids=["simulate-1e-200", "simulate-1e-9", "simulate-1e-6", "predict-1e-200"])
    def test_a_numerically_radial_state_exits_one(self, capsys, argv, L):
        code, out, err = run_cli(capsys, *argv, "--x0=1.0,0.0")
        assert (code, out) == (1, "")
        assert err == (f"error: angular momentum L = {L} is too small for a = 0.5: "
                       f"the orbit is radial to double precision\n")

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
        (["error-curve", "--method", "dec", "--h", "1e-300"], "5e+302", "1e-300")],
        ids=["simulate", "simulate-steps", "simulate-inf", "precession", "error-curve"])
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
                 "mp": (-0.15895305852084207, -0.13474096459156304)}

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

    # no schema outlives its subcommand; bench-record shapes the committed
    # BENCH_*.json files
    def test_one_schema_per_subcommand(self):
        assert {path.name for path in SCHEMA_DIR.iterdir()} == {
            *(f"{command}.schema.json" for command in keplerlab.cli._COMMANDS),
            "bench-record.schema.json"}


def test_readme_cli_examples_parse():
    # every `keplerlab ...` line of the README's CLI code block, comment dropped
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0] for line in block.splitlines()
                if line.startswith("keplerlab ")]
    assert len(examples) == 7
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
                    "predict", "averages"):
            assert sub in proc.stdout
