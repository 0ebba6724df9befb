"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation toggles one structural mechanism of an engine and shows
its effect on the benchmark that targets it -- demonstrating that the
reproduced results are driven by real mechanisms, not cost tables.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner, Harness, JobSpec, get_benchmark
from repro.platform import VEXPRESS
from repro.sim.spec import DBTSpec


def _run(runner, bench_name, iterations=150, **fields):
    [result] = runner.run([
        JobSpec(
            get_benchmark(bench_name), DBTSpec(**fields), ARM, VEXPRESS,
            iterations=iterations,
        )
    ])
    assert result.ok, result.error
    return result


def test_ablation_block_chaining(benchmark, save_artifact):
    """Chaining on/off on Intra-Page Direct: the chained engine skips
    the dispatcher almost entirely."""
    runner = ExperimentRunner()

    def run():
        chained = _run(runner, "Intra-Page Direct", chain_enabled=True)
        unchained = _run(runner, "Intra-Page Direct", chain_enabled=False)
        return chained, unchained

    chained, unchained = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: DBT block chaining (Intra-Page Direct)\n"
        "  chaining on : %.6f s modeled, %6d dispatches, %6d chain follows\n"
        "  chaining off: %.6f s modeled, %6d dispatches, %6d chain follows\n"
        % (
            chained.kernel_seconds,
            chained.kernel_delta["slow_dispatches"],
            chained.kernel_delta["chain_follows"],
            unchained.kernel_seconds,
            unchained.kernel_delta["slow_dispatches"],
            unchained.kernel_delta["chain_follows"],
        )
    )
    save_artifact("ablation_chaining.txt", text)
    print()
    print(text)
    assert chained.kernel_ns < unchained.kernel_ns
    assert unchained.kernel_delta["chain_follows"] == 0


def test_ablation_softmmu_tlb_size(benchmark, save_artifact):
    """Shrinking the softmmu TLB turns Cold Memory Access pathological."""
    runner = ExperimentRunner()

    def run():
        big = _run(runner, "Cold Memory Access", iterations=600, tlb_bits=12)
        small = _run(runner, "Cold Memory Access", iterations=600, tlb_bits=4)
        return big, small

    big, small = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: softmmu TLB size (Cold Memory Access, 600 pages)\n"
        "  tlb_bits=12: %.6f s modeled, %6d misses\n"
        "  tlb_bits=4 : %.6f s modeled, %6d misses\n"
        % (
            big.kernel_seconds,
            big.kernel_delta["tlb_misses"],
            small.kernel_seconds,
            small.kernel_delta["tlb_misses"],
        )
    )
    save_artifact("ablation_tlb_size.txt", text)
    print()
    print(text)
    assert small.kernel_delta["tlb_misses"] >= big.kernel_delta["tlb_misses"]


def test_ablation_max_block_length(benchmark, save_artifact):
    """Short translation blocks inflate dispatch counts on the Large
    Blocks benchmark."""
    runner = ExperimentRunner()

    def run():
        long_blocks = _run(runner, "Large Blocks", iterations=60, max_block_insns=64)
        short_blocks = _run(runner, "Large Blocks", iterations=60, max_block_insns=8)
        return long_blocks, short_blocks

    long_blocks, short_blocks = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: DBT max block length (Large Blocks)\n"
        "  max=64: %6d translations, %6d block executions\n"
        "  max= 8: %6d translations, %6d block executions\n"
        % (
            long_blocks.kernel_delta["translations"],
            long_blocks.kernel_delta["block_executions"],
            short_blocks.kernel_delta["translations"],
            short_blocks.kernel_delta["block_executions"],
        )
    )
    save_artifact("ablation_block_length.txt", text)
    print()
    print(text)
    assert (
        short_blocks.kernel_delta["block_executions"]
        > long_blocks.kernel_delta["block_executions"]
    )


def test_ablation_asid_tagged_tlb(benchmark, save_artifact):
    """The paper's future-work item: ASID-tagged TLBs make address-space
    switches a retag instead of a conservative flush."""
    from repro.core.benchmarks.extensions import ContextSwitch

    bench = ContextSwitch()

    def run():
        untagged, tagged = ExperimentRunner().run([
            JobSpec(
                bench, DBTSpec(asid_tagged=asid_tagged), ARM, VEXPRESS,
                iterations=150,
            )
            for asid_tagged in (False, True)
        ])
        return untagged, tagged

    untagged, tagged = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: ASID-tagged softmmu TLB (Context Switch extension)\n"
        "  untagged (flush per switch): %.6f s modeled, %6d TLB misses\n"
        "  tagged   (retag per switch): %.6f s modeled, %6d TLB misses\n"
        % (
            untagged.kernel_seconds,
            untagged.kernel_delta["tlb_misses"],
            tagged.kernel_seconds,
            tagged.kernel_delta["tlb_misses"],
        )
    )
    save_artifact("ablation_asid.txt", text)
    print()
    print(text)
    assert tagged.kernel_delta["tlb_misses"] < untagged.kernel_delta["tlb_misses"] / 10
    assert tagged.kernel_ns < untagged.kernel_ns


def test_ablation_interpreter_decode_cache(benchmark, save_artifact):
    """The fast interpreter without its decode cache re-decodes every
    instruction (counter-level ablation; the modeled decode-miss cost
    then dominates hot loops)."""
    from repro.machine import Board
    from repro.sim import FastInterpreter

    harness = Harness()
    bench = get_benchmark("Hot Memory Access")
    built = harness.build_program(bench, ARM, VEXPRESS)

    def run_one(use_cache):
        board = Board(VEXPRESS)
        board.load(built.program)
        board.set_iterations(200)
        engine = FastInterpreter(board, arch=ARM, use_decode_cache=use_cache)
        result = engine.run(max_insns=10_000_000)
        assert result.halted_ok
        return engine

    def run():
        return run_one(True), run_one(False)

    cached, uncached = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: interpreter decode cache (Hot Memory Access)\n"
        "  cache on : %8d decode misses / %8d insns\n"
        "  cache off: %8d decode misses / %8d insns\n"
        % (
            cached.counters.decode_misses,
            cached.counters.instructions,
            uncached.counters.decode_misses,
            uncached.counters.instructions,
        )
    )
    save_artifact("ablation_decode_cache.txt", text)
    print()
    print(text)
    assert uncached.counters.decode_misses == uncached.counters.instructions
    assert cached.counters.decode_misses < cached.counters.instructions // 10
