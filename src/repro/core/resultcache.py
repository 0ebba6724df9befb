"""Fingerprints of benchmark execution jobs: the one cell identity.

Under the MODELED timing policy an :class:`~repro.core.harness.ExecutionRecord`
is a pure function of the job's structural inputs, so it can be stored
once and re-priced forever ("execute once, price many").  A cell is
identified by a SHA-256 fingerprint over everything the record
depends on.  The runner dedups a grid by it (jobs with one fingerprint
share one execution and one telemetry row), and the experiment
dataset (:mod:`repro.exp.dataset`) stores one record per fingerprint.
It covers:

- the benchmark's identity (name, implementing class and its module,
  and -- for MiniC workloads -- a hash of the guest source);
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


#: ``(COST_SCHEMA_VERSION, COUNTER_NAMES, tag)`` of the last
#: :func:`schema_tag` call.
_schema_memo = (None, None, None)

#: ``cell identity -> fingerprint`` (see :func:`cell_fingerprint`), at
#: most :data:`_FINGERPRINT_LIMIT` entries of about 0.3 KiB each.
_FINGERPRINTS = {}
_FINGERPRINT_LIMIT = 1024


def remember(memo, key, value, limit):
    """Store ``value`` under ``key``, evicting the oldest entry first
    when ``memo`` already holds ``limit`` entries."""
    if len(memo) >= limit:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def schema_tag():
    """Identifier of the counter/cost schema stored records were built for.

    Computed once per ``(COST_SCHEMA_VERSION, COUNTER_NAMES)`` pair: a
    different version or vocabulary (the module attributes are read on
    every call) yields a fresh tag."""
    global _schema_memo
    version, names, tag = _schema_memo
    if version != COST_SCHEMA_VERSION or names is not COUNTER_NAMES:
        digest = hashlib.sha256("\n".join(COUNTER_NAMES).encode("utf-8")).hexdigest()
        tag = "%d-%s" % (COST_SCHEMA_VERSION, digest[:12])
        _schema_memo = (COST_SCHEMA_VERSION, COUNTER_NAMES, tag)
    return tag


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


def cell_fingerprint(benchmark, engine_spec, arch, platform, iterations):
    """:func:`job_fingerprint` of a job whose engine is ``engine_spec``
    (an :class:`~repro.sim.spec.EngineSpec`), memoized process-wide.

    The memo key holds every input of the fingerprint, exactly: the
    schema tag (so a change of :data:`COST_SCHEMA_VERSION` or of the
    counter vocabulary misses), the benchmark's name, class and source,
    arch, platform, iterations, and the spec's canonical JSON
    :meth:`~repro.sim.spec.EngineSpec.cache_key_token`.  A hit
    therefore returns what a fresh :func:`job_fingerprint` would.
    """
    cls = type(benchmark)
    key = (
        schema_tag(),
        benchmark.name,
        cls.__module__,
        cls.__qualname__,
        getattr(benchmark, "source", None),
        getattr(arch, "name", arch),
        getattr(platform, "name", platform),
        iterations,
        engine_spec.cache_key_token(),
    )
    fingerprint = _FINGERPRINTS.get(key)
    if fingerprint is None:
        fingerprint = job_fingerprint(
            benchmark,
            engine_spec.engine,
            arch,
            platform,
            iterations,
            engine_spec.cache_key_payload(),
        )
        remember(_FINGERPRINTS, key, fingerprint, _FINGERPRINT_LIMIT)
    return fingerprint
