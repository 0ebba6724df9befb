"""Physical memory and bus tests."""

import os
import subprocess
import sys

import pytest

from repro.errors import BusError, MachineError
from repro.machine import Board
from repro.machine.devices import SafeDevice
from repro.machine.memory import PhysicalMemory
from repro.platform import VEXPRESS


@pytest.fixture
def memory():
    mem = PhysicalMemory()
    mem.add_ram(0x0, 0x4000)
    mem.add_ram(0x1_0000, 0x1000)
    mem.add_device(0xF000_0000, 0x1000, SafeDevice())
    return mem


class TestRam:
    def test_read_write_roundtrip(self, memory):
        memory.write32(0x100, 0xDEADBEEF)
        assert memory.read32(0x100) == 0xDEADBEEF

    def test_little_endian(self, memory):
        memory.write32(0x0, 0x04030201)
        assert memory.read8(0x0) == 0x01
        assert memory.read8(0x3) == 0x04

    def test_byte_write_masks(self, memory):
        memory.write8(0x10, 0x1FF)
        assert memory.read8(0x10) == 0xFF

    def test_second_region(self, memory):
        memory.write32(0x1_0000, 7)
        assert memory.read32(0x1_0000) == 7

    def test_unaligned_region_rejected(self):
        mem = PhysicalMemory()
        with pytest.raises(MachineError):
            mem.add_ram(0x10, 0x1000)

    def test_overlapping_ram_rejected(self, memory):
        with pytest.raises(MachineError):
            memory.add_ram(0x1000, 0x1000)

    def test_overlapping_device_rejected(self, memory):
        with pytest.raises(MachineError):
            memory.add_device(0xF000_0000, 0x1000, SafeDevice())

    def test_bus_error_on_hole(self, memory):
        with pytest.raises(BusError):
            memory.read32(0x5000_0000)
        with pytest.raises(BusError):
            memory.write32(0x5000_0000, 1)

    def test_find_ram_boundary(self, memory):
        assert memory.find_ram(0x3FFC, 4) is not None
        assert memory.find_ram(0x3FFE, 4) is None

    def test_bulk_roundtrip(self, memory):
        memory.write_bytes(0x200, b"hello world!")
        assert memory.read_bytes(0x200, 12) == b"hello world!"

    def test_bulk_outside_ram(self, memory):
        with pytest.raises(BusError):
            memory.write_bytes(0xF000_0000, b"xx")


class TestDeviceRouting:
    def test_device_read(self, memory):
        assert memory.read32(0xF000_0000) == SafeDevice.ID_VALUE

    def test_device_write(self, memory):
        memory.write32(0xF000_0004, 0x55)
        _base, _size, device = memory.find_device(0xF000_0004)
        assert device.led == 0x55

    def test_find_device_miss(self, memory):
        assert memory.find_device(0xF000_1000) is None

    def test_is_device(self, memory):
        assert memory.is_device(0xF000_0000)
        assert not memory.is_device(0x0)

    def test_ram_write_hook(self, memory):
        pages = []
        memory.on_ram_write = pages.append
        memory.write32(0x2010, 1)
        assert pages == [0x2]


class TestRamBacking:
    """RAM is a private anonymous mapping, zero-filled on first touch."""

    def test_fresh_ram_reads_zero_at_both_ends(self):
        board = Board(VEXPRESS)
        (region,) = board.memory.ram_regions
        assert board.memory.read8(region.base) == 0
        assert board.memory.read8(region.end - 1) == 0

    def test_backing_length_is_region_size(self):
        (region,) = Board(VEXPRESS).memory.ram_regions
        assert len(region.data) == region.size

    def test_slice_write_past_end_raises_instead_of_growing(self, memory):
        region = memory.find_ram(0x0)
        with pytest.raises(IndexError):
            region.data[region.size - 2 : region.size + 2] = b"abcd"
        assert len(region.data) == region.size

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        # Pool workers are forked; a shared mapping would leak a
        # worker's guest stores into the parent's board.
        board = Board(VEXPRESS)
        addr = VEXPRESS.ram_base + 0x1000
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                board.memory.write32(addr, 0xDEADBEEF)
                ok = board.memory.read32(addr) == 0xDEADBEEF
            finally:
                os._exit(0 if ok else 1)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert board.memory.read32(addr) == 0

    def test_boards_commit_only_touched_pages(self):
        # A fresh interpreter, so an earlier test's peak cannot hide
        # the growth; the boards stay alive until the second sample.
        script = (
            "import resource\n"
            "from repro.machine import Board\n"
            "from repro.platform import VEXPRESS\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "boards = [Board(VEXPRESS) for _ in range(8)]\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        grown_kib = int(out)
        assert grown_kib < VEXPRESS.ram_size // 1024
