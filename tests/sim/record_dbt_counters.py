"""Record the qemu-dbt outcomes that ``test_dbt.py`` pins.

    PYTHONPATH=src python -m tests.sim.record_dbt_counters

Writes ``tests/sim/dbt_counters.json``: for every benchmark on both
arches (``FIXTURE_ITERATIONS`` iterations) and for every inline-softmmu
edge case, the exit, architectural state, UART output and full counter
snapshot (plus a RAM digest for the edge cases).  Re-record only on a
revision whose DBT is known good, and only when a change to guest
counters is intended: the fixture is how a faster lowering proves it
still counts exactly what the previous one did.
"""

import json

from tests.sim.test_dbt import (
    EDGE_CASES,
    FIXTURE,
    benchmark_keys,
    benchmark_outcome,
    edge_outcome,
)


def record():
    return {
        "benchmarks": {key: benchmark_outcome(key) for key in benchmark_keys()},
        "edge_cases": {name: edge_outcome(name) for name in sorted(EDGE_CASES)},
    }


def main():
    with open(FIXTURE, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
