"""The QEMU-like dynamic binary translation engine.

Guest basic blocks are translated into compiled Python functions (our
"TCG"), cached by (virtual, physical) start address, chained for direct
same-page branches, and invalidated when guest stores hit translated
code.  Memory accesses go through a direct-mapped softmmu TLB backed by
the shared page-table walker; synchronous exceptions are side exits;
interrupts are recognised at block boundaries.
"""

from repro.sim.dbt.engine import DBTSimulator
from repro.sim.dbt.blockcache import TranslatedBlock, TranslationCache
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version

__all__ = [
    "DBTSimulator",
    "TranslatedBlock",
    "TranslationCache",
    "QEMU_VERSIONS",
    "dbt_spec_for_version",
]
