"""SPEC-proxy workload tests."""

import pytest

from repro.arch import ARM, X86
from repro.core import ExperimentRunner
from repro.platform import PCPLAT, VEXPRESS
from repro.workloads import SPEC_PROXIES, get_workload
from tests.runs import run_cell


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestRegistry:
    def test_twelve_proxies(self):
        assert len(SPEC_PROXIES) == 12
        names = {w.name for w in SPEC_PROXIES}
        assert names == {
            "perlbench",
            "bzip2",
            "gcc",
            "mcf",
            "gobmk",
            "hmmer",
            "sjeng",
            "libquantum",
            "h264ref",
            "omnetpp",
            "astar",
            "xalancbmk",
        }

    def test_lookup(self):
        assert get_workload("mcf").name == "mcf"
        with pytest.raises(KeyError):
            get_workload("spec2017")


@pytest.mark.parametrize("workload", SPEC_PROXIES, ids=[w.name for w in SPEC_PROXIES])
class TestProxiesRun:
    def test_runs_on_reference_engine(self, runner, workload):
        result = run_cell(runner, workload, "simit", ARM, VEXPRESS, iterations=2)
        assert result.status == "ok", result.error
        assert result.kernel_instructions > 1000

    def test_runs_on_x86_profile(self, runner, workload):
        result = run_cell(runner, workload, "qemu-dbt", X86, PCPLAT, iterations=2)
        assert result.status == "ok", result.error

    def test_deterministic_across_engines(self, workload):
        """The same workload must retire the same instruction stream on
        the fast interpreter and on the DBT engine."""
        interp = run_cell(None, workload, "simit", ARM, VEXPRESS, iterations=2)
        dbt = run_cell(None, workload, "qemu-dbt", ARM, VEXPRESS, iterations=2)
        assert interp.kernel_instructions == dbt.kernel_instructions
        assert interp.kernel_delta["loads"] == dbt.kernel_delta["loads"]
        assert interp.kernel_delta["stores"] == dbt.kernel_delta["stores"]


class TestDynamicCharacter:
    """Each proxy must exhibit the profile its namesake is known for."""

    def test_mcf_is_memory_heavy(self, runner):
        result = run_cell(runner, get_workload("mcf"), "simit", ARM, VEXPRESS, iterations=2)
        delta = result.kernel_delta
        loads_per_insn = delta["loads"] / delta["instructions"]
        assert loads_per_insn > 0.10

    def test_mcf_is_call_heavy(self, runner):
        result = run_cell(runner, get_workload("mcf"), "simit", ARM, VEXPRESS, iterations=2)
        delta = result.kernel_delta
        assert delta["calls"] > 1000  # cost() + penalty() per hop

    def test_sjeng_is_compute_dense(self, runner):
        result = run_cell(runner, get_workload("sjeng"), "simit", ARM, VEXPRESS, iterations=2)
        delta = result.kernel_delta
        calls_per_insn = delta["calls"] / delta["instructions"]
        assert calls_per_insn < 0.005  # few calls: big straight-line blocks

    def test_libquantum_streams_memory(self, runner):
        result = run_cell(
            runner, get_workload("libquantum"), "simit", ARM, VEXPRESS, iterations=2
        )
        delta = result.kernel_delta
        assert delta["stores"] > 1000

    def test_gobmk_is_branchy(self, runner):
        result = run_cell(runner, get_workload("gobmk"), "simit", ARM, VEXPRESS, iterations=2)
        delta = result.kernel_delta
        branches = (
            delta["branches_direct_intra"]
            + delta["branches_direct_inter"]
            + delta["branches_not_taken"]
        )
        assert branches / delta["instructions"] > 0.10

    def test_xalancbmk_returns_constantly(self, runner):
        result = run_cell(
            runner, get_workload("xalancbmk"), "simit", ARM, VEXPRESS, iterations=2
        )
        delta = result.kernel_delta
        # Every handler call returns through an indirect branch.
        assert delta["branches_indirect_inter"] + delta["branches_indirect_intra"] > 500

    def test_no_proxy_touches_devices_in_kernel(self, runner):
        for workload in SPEC_PROXIES:
            result = run_cell(runner, workload, "simit", ARM, VEXPRESS, iterations=1)
            delta = result.kernel_delta
            assert delta["mmio_reads"] == 0
            # (the phase-2 marker accounts for exactly one device write)
            assert delta["mmio_writes"] == 1


class TestVersionSensitivity:
    """The Figure 2 story: mcf regresses across the QEMU timeline while
    sjeng does not."""

    def test_mcf_declines_sjeng_holds(self, runner):
        from repro.sim.dbt.versions import dbt_spec_for_version

        def speedup(workload_name):
            workload = get_workload(workload_name)
            base = run_cell(
                runner, workload, dbt_spec_for_version("v1.7.0"), ARM, VEXPRESS,
                iterations=2,
            )
            last = run_cell(
                runner, workload, dbt_spec_for_version("v2.5.0-rc2"), ARM, VEXPRESS,
                iterations=2,
            )
            return base.kernel_ns / last.kernel_ns

        assert speedup("mcf") < 0.95
        assert speedup("sjeng") > 1.0
