"""The driver contract of `__ray_entry__`: the catalog's names, the
correctness window at its head and the oracle for every query that has
one."""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WINDOW = 50  # the driver records the first 50 entries


def test_driver_contract():
    # a subprocess: importing __ray_entry__ registers tokcodec for
    # by-value pickling, which this test process must not inherit
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; sys.path.insert(0, %r); import __ray_entry__ as e\n"
         "from tokcodec.pipelines.queries import CATALOG\n"
         "print(json.dumps({'catalog': [n for n, _, _ in CATALOG],\n"
         "                  'queries': list(e.queries()), 'oracles': list(e.oracle_sql())}))"
         % REPO],
        capture_output=True, text=True, check=True, cwd="/tmp",
    )
    got = json.loads(out.stdout)
    names, oracles = got["queries"], set(got["oracles"])
    assert got["catalog"] == names
    assert len(names) == len(set(names)) == 71
    assert [n for n in names[:WINDOW] if n not in oracles] == []
    assert oracles == set(names) - {"encode_stats_documents"}
