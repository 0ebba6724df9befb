"""Record the outcomes that ``test_word_access.py`` pins.

    PYTHONPATH=src python -m tests.sim.record_word_access

Writes ``tests/sim/word_access.json``: for every engine, word-access
case and MMU setting, the exit, architectural state, UART output, full
counter snapshot and a RAM digest.  Re-record only on a revision whose
engines are known good, and only when a change to guest results is
intended.
"""

import json

from tests.sim.test_word_access import CASES, FIXTURE, MMU, fixture_key, run_case
from tests.sim.util import ALL_ENGINES


def record():
    return {
        fixture_key(cls, case, mmu): run_case(cls, case, mmu)[1]
        for cls in ALL_ENGINES
        for case in CASES
        for mmu in MMU
    }


def main():
    with open(FIXTURE, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
