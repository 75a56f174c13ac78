import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, better, bound, past", [
    # a query_mix peak RSS of 36.2 -> 40.8 MiB is +12.7 %, past the 10 % bound
    (36.2, 40.8, "lower", 0.1, True),
    (36.2, 39.8, "lower", 0.1, False),
    (36.2, 30.0, "lower", 0.1, False),  # better by any amount
    (100.0, 125.0, "lower", 0.25, False),  # exactly at the bound
    (100.0, 125.1, "lower", 0.25, True),
    (100.0, 70.0, "higher", 0.25, True),
    (100.0, 200.0, "higher", 0.25, False),
    (100.0, 900.0, "lower", None, False),  # no bound: never flagged
])
def test_past_bound(parent, change, better, bound, past):
    assert bench_pairs.past_bound(parent, change, better, bound) is past
