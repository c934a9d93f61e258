"""Fixtures for the benchmark's own tests.

The ``spark`` fixture comes from the repository's root ``conftest.py``.
Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""
import os
import sys
from pathlib import Path

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")  # read by the spark fixture

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent)]

import pytest  # noqa: E402

from repro.kb.schema import pair_from_rows  # noqa: E402


@pytest.fixture(scope="session")
def toy_pair(spark):
    """Three true matches (1-101, 2-102, 3-103) and one distractor per KB:
    1/101 share a unique name, 2/102 pair-unique tokens, 3/103 only a
    common token and a neighbor."""
    rows1 = [
        (1, "ns0:name", "Acme Corp", False),
        (1, "ns0:desc", "zeta other1", False),
        (1, "ns0:rel", "3", True),
        (2, "ns0:name", "Beta LLC", False),
        (2, "ns0:desc", "qux alpha1", False),
        (2, "ns0:rel", "1", True),
        (3, "ns0:name", "Gamma Inc", False),
        (3, "ns0:desc", "common stuff1", False),
        (3, "ns0:rel", "1", True),
        (4, "ns0:name", "Delta Ltd", False),
        (4, "ns0:desc", "common stuff2", False),
    ]
    rows2 = [
        (101, "ns1:label", "acme corp", False),
        (101, "ns1:info", "zeta also", False),
        (101, "ns1:link", "103", True),
        (102, "ns1:label", "Beta Company", False),
        (102, "ns1:info", "beta7 qux", False),
        (102, "ns1:link", "101", True),
        (103, "ns1:label", "Gmma Incorporated", False),
        (103, "ns1:info", "common things", False),
        (103, "ns1:link", "101", True),
        (104, "ns1:label", "Epsilon GmbH", False),
        (104, "ns1:info", "common matter", False),
    ]
    return pair_from_rows(spark, "toy", rows1, rows2, [(1, 101), (2, 102), (3, 103)])
