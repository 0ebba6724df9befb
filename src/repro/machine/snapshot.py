"""Machine snapshots: capture and restore full board state.

Full-system simulators routinely support checkpointing (boot once,
measure many).  A :class:`MachineSnapshot` captures everything the
guest can observe -- RAM, CPU registers, coprocessor state, device
state -- so a board can be rolled back and re-run deterministically.

Engine-side caches (decode maps, TLBs, translation caches) are *not*
part of the snapshot: they are host-side structures.  The contract is
to attach a **fresh engine** after a restore; reusing an engine whose
caches describe pre-restore memory is undefined.

Typical use::

    board.load(program)
    warm = FastInterpreter(board, arch=ARM)
    warm.run(max_insns=...)           # e.g. run the setup phase
    snap = snapshot(board)
    for spec in specs:
        restore(board, snap)
        engine = spec.build(board, ARM)
        engine.run(...)
"""

import zlib


class MachineSnapshot:
    """An opaque, self-contained capture of board state."""

    __slots__ = ("platform_name", "ram", "cpu", "cp15", "cp1", "devices")

    def __init__(self, platform_name, ram, cpu, cp15, cp1, devices):
        self.platform_name = platform_name
        #: list of (base, zlib-compressed bytes) per RAM region
        self.ram = ram
        self.cpu = cpu
        self.cp15 = cp15
        self.cp1 = cp1
        self.devices = devices

    @property
    def compressed_size(self):
        return sum(len(data) for _base, data in self.ram)

    def __repr__(self):
        return "MachineSnapshot(platform=%s, ram=%d bytes compressed)" % (
            self.platform_name,
            self.compressed_size,
        )


_CP15_FIELDS = ("sctlr", "ttbr", "dacr", "fsr", "far", "vbar", "asid", "devid", "cpuid")


def snapshot(board):
    """Capture the full guest-visible state of ``board``."""
    ram = [
        (region.base, zlib.compress(region.data, level=1))
        for region in board.memory.ram_regions
    ]
    cpu = board.cpu
    cpu_state = {
        "regs": list(cpu.regs),
        "pc": cpu.pc,
        "psr": cpu.psr,
        "elr": cpu.elr,
        "spsr": cpu.spsr,
        "halted": cpu.halted,
        "halt_code": cpu.halt_code,
        "waiting": cpu.waiting,
    }
    cp15 = {field: getattr(board.cp15, field) for field in _CP15_FIELDS}
    cp1 = {"fpcr": board.cops.cp1.fpcr}
    devices = {
        "uart_output": bytes(board.uart.output),
        "testctl": {
            "iterations": board.testctl.iterations,
            "scratch": board.testctl.scratch,
            "phases_seen": list(board.testctl.phases_seen),
        },
        "safedev": {"led": board.safedev.led, "scratch": board.safedev.scratch},
        "timer_ctrl": board.timer.ctrl,
        "intc": {"pending": board.intc.pending, "enable": board.intc.enable},
    }
    return MachineSnapshot(board.platform.name, ram, cpu_state, cp15, cp1, devices)


def restore(board, snap):
    """Restore a snapshot into ``board`` (same platform required)."""
    if board.platform.name != snap.platform_name:
        raise ValueError(
            "snapshot is for platform %r, board is %r"
            % (snap.platform_name, board.platform.name)
        )
    regions = {region.base: region for region in board.memory.ram_regions}
    for base, compressed in snap.ram:
        region = regions.get(base)
        if region is None:
            raise ValueError("snapshot RAM region 0x%08x missing on board" % base)
        data = zlib.decompress(compressed)
        if len(data) != region.size:
            raise ValueError("snapshot RAM region 0x%08x has wrong size" % base)
        region.data[:] = data

    cpu = board.cpu
    cpu.regs[:] = snap.cpu["regs"]
    cpu.pc = snap.cpu["pc"]
    cpu.psr = snap.cpu["psr"]
    cpu.elr = snap.cpu["elr"]
    cpu.spsr = snap.cpu["spsr"]
    cpu.halted = snap.cpu["halted"]
    cpu.halt_code = snap.cpu["halt_code"]
    cpu.waiting = snap.cpu["waiting"]

    for field, value in snap.cp15.items():
        setattr(board.cp15, field, value)
    board.cops.cp1.fpcr = snap.cp1["fpcr"]

    board.uart.output = bytearray(snap.devices["uart_output"])
    board.testctl.iterations = snap.devices["testctl"]["iterations"]
    board.testctl.scratch = snap.devices["testctl"]["scratch"]
    board.testctl.phases_seen = list(snap.devices["testctl"]["phases_seen"])
    board.safedev.led = snap.devices["safedev"]["led"]
    board.safedev.scratch = snap.devices["safedev"]["scratch"]
    board.timer.ctrl = snap.devices["timer_ctrl"]
    board.intc.pending = snap.devices["intc"]["pending"]
    board.intc.enable = snap.devices["intc"]["enable"]
    return board
