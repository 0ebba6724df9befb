"""Persistent cross-run store of compiled DBT blocks.

The expensive part of :meth:`Translator.translate` is lowering a block
to Python source and ``compile()``-ing it; both are pure functions of
the instruction bytes, the block's virtual start address (absolute PCs
are embedded in the generated source) and the structural translation
knobs.  This module stores the compiled code objects on disk so a warm
sweep skips lowering and compilation entirely -- a new process gets
translations "for free" the way QEMU reuses its translation cache
within a run.

Keys are content addresses: SHA-256 over the CPython bytecode magic
(marshalled code objects are only loadable by the interpreter version
that produced them), :data:`CODEGEN_VERSION`,
:meth:`DBTSpec.translation_key`, the virtual start address and the
block's instruction bytes.  Any of those
changing produces a different key, so stale entries are never
*loaded* -- at worst they sit unused until ``repro cache clear``.

Entries are ``marshal`` payloads ``(word_bytes, insn_count, source,
code)`` stored through the same two-level directory scheme and
quarantine discipline as the experiment dataset (truncated or garbage files
count as a miss, are unlinked, and bump ``stats()["quarantined"]`` --
never a crash).

The store is process-wide: :func:`configure` installs it (the
experiment runner does this in every worker from ``--code-cache-dir``)
and :func:`active` returns it.
"""

import hashlib
import importlib.util
import marshal
import os
import types

from repro.storage import DirectoryStore


class CodeStore(DirectoryStore):
    """On-disk store of marshalled translated-block payloads."""

    suffix = ".blob"
    metrics_name = "codestore"
    #: ``marshal.loads`` raises ValueError/EOFError on garbage or
    #: truncation, TypeError on unmarshallable junk; a payload of the
    #: wrong shape surfaces the same way from the unpack below.
    decode_errors = (ValueError, EOFError, TypeError)

    def _read_entry(self, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        payload = marshal.loads(blob)
        word_bytes, insn_count, source, code = payload
        if (
            not isinstance(word_bytes, bytes)
            or not isinstance(insn_count, int)
            or not isinstance(source, str)
            or not isinstance(code, types.CodeType)
        ):
            raise ValueError("malformed code-store entry")
        return payload

    def _write_entry(self, fd, payload):
        with os.fdopen(fd, "wb") as fh:
            fh.write(marshal.dumps(payload))


#: Version of the code the translator emits.  Bump it whenever the
#: emitted source changes for the same inputs -- a new inline path, a
#: renamed engine helper -- so entries lowered by an older emitter are
#: never loaded.
#:
#: 2: LDR/STR/LDRB/STRB probe the softmmu TLB slot inline.
CODEGEN_VERSION = 2


def block_key(translation_key, vaddr, word_bytes):
    """Content address for one compiled block."""
    digest = hashlib.sha256()
    digest.update(importlib.util.MAGIC_NUMBER)
    digest.update(CODEGEN_VERSION.to_bytes(4, "little"))
    digest.update(repr(translation_key).encode("utf-8"))
    digest.update(vaddr.to_bytes(4, "little"))
    digest.update(word_bytes)
    return digest.hexdigest()


_ACTIVE = None


def configure(root):
    """Install (or, with ``None``, remove) the process-wide store."""
    global _ACTIVE
    _ACTIVE = CodeStore(root) if root else None
    return _ACTIVE


def active():
    """The process-wide store, or ``None`` when no directory is set."""
    return _ACTIVE
