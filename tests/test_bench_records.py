"""The committed bench records (BENCH_*.json at the root) against their schema,
and their traced runs against the work counters, which are deterministic."""

import json
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_matches_the_schema(path):
    schema = json.loads((ROOT / "schemas" / "bench-record.schema.json").read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    record = json.loads(path.read_text())
    jsonschema.validate(record, schema)
    assert {run["side"] for run in record["traced"]} == {"parent", "change"}


# work a change must not alter, and work it must not add, between the traced
# runs of the parent and of the change on the same workload and seed
# (cli.out_bytes is left out: a round-off change may move it by a byte)
EQUAL_COUNTERS = ("integrators.steps", "theory.rk4_substeps", "cli.rows")
NO_RISE_COUNTERS = ("integrators.implicit_solves", "integrators.newton_iters",
                    "kepler.state_at.calls")


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_traced_work_counters_hold(path):
    runs = {}
    for run in json.loads(path.read_text())["traced"]:
        metrics = run["result"]["metrics"]
        runs.setdefault((run["workload"], run["seed"]), {})[run["side"]] = {
            name: metrics[name]["value"] for name in EQUAL_COUNTERS + NO_RISE_COUNTERS}
    for key, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        for name in EQUAL_COUNTERS:
            assert change[name] == parent[name], (key, name)
        for name in NO_RISE_COUNTERS:
            assert change[name] <= parent[name], (key, name)


# every record from BENCH_31 on carries an A/A block; the schema cannot
# require one, as BENCH_8 to BENCH_30 predate it
@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_records_from_31_on_carry_an_aa_block(path):
    if int(path.stem.removeprefix("BENCH_")) >= 31:
        assert "aa" in json.loads(path.read_text()), path.name


# an A/A comparison, where a record has one: the parent tree alone, run from
# two checkouts whose directory names differ in length (a name's length alone
# has moved medians), with every workload and seed run once from each
AA_RECORDS = [p for p in RECORDS if "aa" in json.loads(p.read_text())]


@pytest.mark.parametrize("path", AA_RECORDS, ids=[p.name for p in AA_RECORDS])
def test_aa_runs_pair_two_checkouts(path):
    aa = json.loads(path.read_text())["aa"]
    checkouts = {run["checkout"] for run in aa}
    assert len(checkouts) == 2 and len({len(name) for name in checkouts}) == 2, checkouts
    runs = {}
    for run in aa:
        assert "--trace 0" in run["command"], run["command"]
        runs.setdefault((run["workload"], run["seed"]), []).append(run["checkout"])
    for key, names in runs.items():
        assert sorted(names) == sorted(checkouts), (key, names)
