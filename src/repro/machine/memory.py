"""Physical memory: RAM regions and the device bus.

The physical address space is a set of non-overlapping RAM regions plus
memory-mapped device regions.  Engines perform the vast majority of
accesses against RAM; the fast path exposes the backing buffer and a
base offset so translated code can index it directly (this is how the
DBT engine's softmmu avoids a bus lookup per access).

RAM is a private anonymous ``mmap``: the host kernel supplies zero pages
on first touch, so a board costs only the pages its guest uses.  Guest
memory is little-endian and is read through a native ``uint32`` view of
that buffer, so the host must be little-endian too.
"""

import bisect
import mmap
import sys

from repro.errors import BusError, MachineError


class RamRegion:
    """A contiguous RAM region backed by a private anonymous ``mmap``.

    ``data`` supports ``len``, indexing (one byte as an ``int``), slice
    reads (which return ``bytes``) and same-length slice writes; it
    cannot be resized, so a slice write past the end raises instead of
    growing the region.  ``words`` is one native ``uint32`` view of the
    same buffer, built once: the aligned word at byte offset ``off`` is
    ``words[off >> 2]``, read and written without a slice or a
    conversion.  Words at an unaligned offset go through ``data``
    slices.  The view is the guest's little-endian word only on a
    little-endian host, so a big-endian host raises
    :class:`~repro.errors.MachineError` here.  ``MAP_PRIVATE`` keeps
    the pages copy-on-write across ``fork``: a forked worker's stores
    never reach its parent's board.
    """

    __slots__ = ("base", "size", "data", "words")

    def __init__(self, base, size):
        if base % 4096 or size % 4096:
            raise MachineError("RAM regions must be page aligned")
        if sys.byteorder != "little":
            raise MachineError("guest RAM needs a little-endian host")
        self.base = base
        self.size = size
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.words = memoryview(self.data).cast("I")

    @property
    def end(self):
        return self.base + self.size

    def contains(self, paddr, size=1):
        return self.base <= paddr and paddr + size <= self.end

    def __repr__(self):
        return "RamRegion(base=0x%08x, size=0x%x)" % (self.base, self.size)


class PhysicalMemory:
    """The physical address space: RAM regions plus a device bus.

    Devices are registered with ``add_device(base, size, device)``;
    accesses inside a device window are routed to the device's
    ``read(offset, size)`` / ``write(offset, value, size)`` methods.
    """

    def __init__(self):
        self._ram = []
        self._ram_bases = []
        self._devices = []
        self._device_bases = []
        #: Optional hook invoked as ``on_code_write(ppage)`` whenever a
        #: store hits RAM; engines use it for SMC invalidation.  It is
        #: installed only while an engine with cached code is attached.
        self.on_ram_write = None

    # -- configuration --------------------------------------------------
    def add_ram(self, base, size):
        region = RamRegion(base, size)
        self._check_overlap(base, size)
        idx = bisect.bisect_left(self._ram_bases, base)
        self._ram.insert(idx, region)
        self._ram_bases.insert(idx, base)
        return region

    def add_device(self, base, size, device):
        self._check_overlap(base, size)
        idx = bisect.bisect_left(self._device_bases, base)
        self._devices.insert(idx, (base, size, device))
        self._device_bases.insert(idx, base)
        return device

    def _check_overlap(self, base, size):
        for region in self._ram:
            if base < region.end and region.base < base + size:
                raise MachineError("region overlaps RAM at 0x%08x" % region.base)
        for dbase, dsize, _dev in self._devices:
            if base < dbase + dsize and dbase < base + size:
                raise MachineError("region overlaps device at 0x%08x" % dbase)

    @property
    def ram_regions(self):
        return tuple(self._ram)

    @property
    def devices(self):
        return tuple(self._devices)

    # -- lookup ----------------------------------------------------------
    def find_ram(self, paddr, size=1):
        """Return the RAM region containing ``[paddr, paddr+size)`` or None."""
        idx = bisect.bisect_right(self._ram_bases, paddr) - 1
        if idx >= 0:
            region = self._ram[idx]
            if region.contains(paddr, size):
                return region
        return None

    def find_device(self, paddr):
        """Return ``(base, size, device)`` for the window containing
        ``paddr`` or None."""
        idx = bisect.bisect_right(self._device_bases, paddr) - 1
        if idx >= 0:
            base, size, device = self._devices[idx]
            if base <= paddr < base + size:
                return base, size, device
        return None

    def is_device(self, paddr):
        return self.find_device(paddr) is not None

    # -- access ------------------------------------------------------------
    def read(self, paddr, size):
        region = self.find_ram(paddr, size)
        if region is not None:
            off = paddr - region.base
            return int.from_bytes(region.data[off : off + size], "little")
        hit = self.find_device(paddr)
        if hit is not None:
            base, _dsize, device = hit
            return device.read(paddr - base, size) & ((1 << (8 * size)) - 1)
        raise BusError(paddr, "read")

    def write(self, paddr, value, size):
        region = self.find_ram(paddr, size)
        if region is not None:
            off = paddr - region.base
            region.data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            )
            hook = self.on_ram_write
            if hook is not None:
                hook(paddr >> 12)
            return
        hit = self.find_device(paddr)
        if hit is not None:
            base, _dsize, device = hit
            device.write(paddr - base, value & ((1 << (8 * size)) - 1), size)
            return
        raise BusError(paddr, "write")

    def read32(self, paddr):
        region = self.find_ram(paddr, 4)
        if region is not None and not paddr & 3:
            return region.words[(paddr - region.base) >> 2]
        return self.read(paddr, 4)

    def write32(self, paddr, value):
        region = self.find_ram(paddr, 4)
        if region is not None and not paddr & 3:
            region.words[(paddr - region.base) >> 2] = value & 0xFFFFFFFF
            hook = self.on_ram_write
            if hook is not None:
                hook(paddr >> 12)
            return
        self.write(paddr, value, 4)

    def read8(self, paddr):
        return self.read(paddr, 1)

    def write8(self, paddr, value):
        self.write(paddr, value, 1)

    # -- bulk helpers (loading programs, tests) ----------------------------
    def write_bytes(self, paddr, data):
        region = self.find_ram(paddr, len(data))
        if region is None:
            raise BusError(paddr, "bulk write")
        off = paddr - region.base
        region.data[off : off + len(data)] = data

    def read_bytes(self, paddr, size):
        region = self.find_ram(paddr, size)
        if region is None:
            raise BusError(paddr, "bulk read")
        off = paddr - region.base
        return region.data[off : off + size]
