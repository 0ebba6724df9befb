"""Fingerprints of benchmark execution jobs.

Under the MODELED timing policy an :class:`~repro.core.harness.ExecutionRecord`
is a pure function of the job's structural inputs, so it can be stored
once and re-priced forever ("execute once, price many").  The
experiment dataset (:mod:`repro.exp.dataset`) stores one record per
job under a SHA-256 fingerprint over everything the record depends on:

- the benchmark's identity (name, implementing class, and -- for MiniC
  workloads -- a hash of the guest source);
- the engine name and the *structural* part of its configuration (cost
  overrides deliberately excluded: they only affect pricing);
- architecture, platform and iteration count;
- a cost-model schema tag covering the counter vocabulary, so every
  stored record self-invalidates when the counter set changes.
"""

import hashlib
import json

from repro.sim.base import COUNTER_NAMES

#: Bump when the meaning of stored deltas or the key format changes
#: (e.g. counter semantics, phase-marker protocol, fingerprint layout).
#: Vocabulary changes are caught automatically by the counter-name hash
#: in :func:`schema_tag`.  Version 2: structural signatures are
#: EngineSpec ``cache_key_payload`` dicts rather than ad-hoc tuples.
COST_SCHEMA_VERSION = 2


def schema_tag():
    """Identifier of the counter/cost schema stored records were built for."""
    digest = hashlib.sha256("\n".join(COUNTER_NAMES).encode("utf-8")).hexdigest()
    return "%d-%s" % (COST_SCHEMA_VERSION, digest[:12])


def job_fingerprint(benchmark, simulator, arch, platform, iterations, structure):
    """The storage key for one execution job.

    ``structure`` is the job's structural signature (normally
    :meth:`~repro.sim.spec.EngineSpec.cache_key_payload`) and must be
    strictly JSON-serialisable -- values whose only encoding would be
    an unstable ``repr`` (live objects, addresses) raise
    :class:`ValueError` instead of silently splitting the store.
    Configs differing only in cost overrides must map to the same
    ``structure`` so a single stored record serves all of them.
    """
    ident = {
        "schema": schema_tag(),
        "benchmark": benchmark.name,
        "benchmark_class": "%s.%s" % (type(benchmark).__module__, type(benchmark).__qualname__),
        "simulator": simulator,
        "arch": getattr(arch, "name", arch),
        "platform": getattr(platform, "name", platform),
        "iterations": int(iterations),
        "structure": structure,
    }
    source = getattr(benchmark, "source", None)
    if source is not None:
        ident["source"] = hashlib.sha256(source.encode("utf-8")).hexdigest()
    try:
        blob = json.dumps(ident, sort_keys=True)
    except TypeError as exc:
        raise ValueError(
            "cache fingerprint inputs must be JSON-serialisable: %s" % exc
        ) from None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
