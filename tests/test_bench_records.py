"""The committed bench records (BENCH_*.json at the root) against their schema."""

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
