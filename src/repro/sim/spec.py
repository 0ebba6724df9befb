"""Typed, serializable engine descriptions (the EngineSpec layer).

An :class:`EngineSpec` is the *single* description of an execution
engine configuration, threaded unchanged through every layer of an
experiment: the harness builds the engine from it, the runner dedups
structurally-equal jobs with it, the result cache keys stored counter
deltas by it, and the analysis drivers construct their grids from it.

Every spec separates two kinds of fields:

- **structural** fields change what the engine actually does -- the
  guest-visible counter deltas (TLB shape and tagging, decode cache,
  DBT chaining/block/translation-cache parameters, ASID tagging);
- **pricing** fields only change how a recorded delta is converted to
  modeled host time (per-counter cost overrides).

Two specs with equal structural fields execute identical guest
instruction streams, so they may share one execution and one cache
entry; their pricing fields are applied afterwards ("execute once,
price many").  A third kind, **meta**, carries labels (the synthetic
QEMU version name) that affect neither execution nor pricing but must
survive serialization.  A fourth, **host**, selects host-side fast
paths (predecoded block replay, translation memoization) that change
wallclock only -- guest-visible counters are bit-identical either way,
so host fields are excluded from structural keys and cache
fingerprints while still reaching the engine constructor and
surviving serialization.

Field values are canonicalized on construction: only JSON scalars,
lists/tuples and string-keyed dicts are accepted.  Arbitrary objects
(a pre-built TLB, a config object smuggled in as a constructor kwarg)
are rejected with :class:`ValueError` instead of leaking an unstable
``repr`` -- whose embedded ``0x...`` id would silently defeat
structural dedup and the on-disk result cache.

The registry (:data:`SPEC_CLASSES`) is the one source of truth for
which engines exist: the simulator-class table, cost-model dispatch and
CLI inventories are all derived from it.
"""

from repro.sim.costs import (
    dbt_cost_model,
    detailed_cost_model,
    interp_cost_model,
    native_cost_model,
    virt_cost_model,
)
from repro.sim.dbt.config import DBTConfig
from repro.sim.dbt.engine import DBTSimulator
from repro.sim.detailed import DetailedInterpreter
from repro.sim.interp import FastInterpreter
from repro.sim.native import NativeMachine
from repro.sim.virt import VirtSimulator


def canonical(value, where="engine option"):
    """Canonicalize a configuration value for keys and payloads.

    Accepts JSON scalars, lists/tuples (normalized to lists) and
    string-keyed dicts, recursively.  Anything else -- in particular
    arbitrary objects whose ``repr`` embeds a memory address -- raises
    :class:`ValueError`: such values cannot produce stable structural
    or cache keys.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item, where) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(
                    "%s: dict keys must be strings, got %r" % (where, key)
                )
            out[key] = canonical(value[key], where)
        return out
    raise ValueError(
        "%s: %r is not canonically serializable -- engine configurations "
        "may only contain JSON scalars, lists and string-keyed dicts "
        "(object-valued options would embed an unstable repr in the "
        "structural/cache key)" % (where, value)
    )


def _freeze(value):
    """A hashable view of a canonical value (dicts sorted by key)."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _arch_name(arch):
    return getattr(arch, "name", arch) or "arm"


class Field:
    """One declared engine option: name, default and kind."""

    STRUCTURAL = "structural"
    PRICING = "pricing"
    META = "meta"
    #: Host-only fast-path toggles: reach the constructor, never the
    #: structural key (toggling them must not split dedup or caches --
    #: the equivalence suite enforces the counters really don't move).
    HOST = "host"

    __slots__ = ("name", "default", "kind")

    def __init__(self, name, default, kind=STRUCTURAL):
        self.name = name
        self.default = default
        self.kind = kind

    def __repr__(self):
        return "Field(%r, default=%r, kind=%r)" % (self.name, self.default, self.kind)


class EngineSpec:
    """A typed, validated, hashable description of one engine config.

    Subclasses declare the registry name (:attr:`engine`), the
    simulator class they build, their fields, and the guest
    architectures the paper evaluates them on (Figure 7 columns).
    """

    #: Registry name (``None`` on the abstract base).
    engine = None
    #: The :class:`~repro.sim.base.Simulator` subclass this spec builds.
    simulator_class = None
    #: Declared fields (tuple of :class:`Field`).
    fields = ()
    #: Guest architectures the engine appears under in the main table.
    evaluated_archs = ("arm", "x86")
    #: ``{field_name: (low, high)}`` ablation pairs for structural
    #: fields: the two settings the attribution/bisection machinery
    #: toggles between.  ``low`` is the setting expected to make a
    #: field-sensitive kernel *slower* (fewer TLB entries, chaining
    #: off, shorter blocks); ``high`` the faster one.  Fields without a
    #: pair here are not bisectable.
    ablations = {}

    def __init__(self, **kwargs):
        cls = type(self)
        known = {field.name for field in cls.fields}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                "unknown engine option(s) %s for %r (known: %s)"
                % (
                    ", ".join(map(repr, unknown)),
                    cls.engine,
                    ", ".join(sorted(known)) or "none",
                )
            )
        for field in cls.fields:
            value = kwargs.get(field.name, field.default)
            setattr(
                self,
                field.name,
                canonical(value, "%s.%s" % (cls.engine, field.name)),
            )
        self.validate()

    # -- validation / views ------------------------------------------------
    def validate(self):
        """Range/consistency checks; subclasses override as needed."""

    def _values(self, kind=None):
        return {
            field.name: getattr(self, field.name)
            for field in type(self).fields
            if kind is None or field.kind == kind
        }

    def structural_values(self):
        """The fields that determine guest-visible counter deltas."""
        return self._values(Field.STRUCTURAL)

    def pricing_values(self):
        """The fields that only affect modeled-time pricing."""
        return self._values(Field.PRICING)

    def host_values(self):
        """The host-only fast-path toggles (wallclock, never counters)."""
        return self._values(Field.HOST)

    # -- keys and serialization -------------------------------------------
    def structural_key(self):
        """Hashable signature of the execution-relevant configuration.

        Two jobs with equal structural keys (and equal benchmark, arch,
        platform and iterations) share one execution.
        """
        return (self.engine, _freeze(self.structural_values()))

    def cache_key_payload(self):
        """JSON-serializable identity for the on-disk result cache."""
        return {"engine": self.engine, "structure": self.structural_values()}

    def to_payload(self):
        """Lossless JSON-serializable form (see :meth:`from_payload`)."""
        return {"engine": self.engine, "fields": self._values()}

    def delta_payload(self):
        """Compact transport form of :meth:`to_payload`.

        Carries only the fields that differ from their declared
        defaults; :meth:`from_payload` fills the rest back in.  This is
        what the runner ships per pool chunk -- most grid specs sit at
        (or near) their defaults, so the wire form collapses to the
        engine name plus a handful of deltas instead of the full field
        dict.
        """
        cls = type(self)
        fields = {}
        for field in cls.fields:
            value = getattr(self, field.name)
            if value != canonical(field.default, field.name):
                fields[field.name] = value
        return {"engine": self.engine, "fields": fields}

    @staticmethod
    def from_payload(payload):
        """Rebuild a spec from :meth:`to_payload` output (identity)."""
        cls = spec_class_for(payload["engine"])
        return cls(**payload.get("fields", {}))

    @classmethod
    def structural_fields(cls):
        """The declared structural :class:`Field` objects, in order."""
        return tuple(f for f in cls.fields if f.kind == Field.STRUCTURAL)

    @classmethod
    def bisectable_fields(cls):
        """Structural fields with a declared ablation pair.

        These are the single features the attribution machinery can
        isolate: each has two settings (:attr:`ablations`) that a
        field-sensitive kernel's cost cliff separates.  Returns
        ``{name: (low, high)}`` in declaration order.
        """
        return {
            f.name: cls.ablations[f.name]
            for f in cls.structural_fields()
            if f.name in cls.ablations
        }

    def diff(self, other):
        """Field-level delta between two specs of the same engine.

        Returns ``{field: (mine, theirs)}`` for every declared field
        whose values differ -- the "what changed between these two
        versions" primitive the bisection report is built on.  Specs of
        different engines have no common field vocabulary and raise
        :class:`ValueError`.
        """
        if type(other) is not type(self):
            raise ValueError(
                "cannot diff %r against %r: different engines have no "
                "common field vocabulary" % (self.engine, getattr(other, "engine", other))
            )
        out = {}
        for field in type(self).fields:
            mine = getattr(self, field.name)
            theirs = getattr(other, field.name)
            if mine != theirs:
                out[field.name] = (mine, theirs)
        return out

    @staticmethod
    def from_delta_payload(payload):
        """Rebuild a spec from :meth:`delta_payload` output.

        The named inverse of the compact transport/manifest form:
        omitted fields take their declared defaults, so
        ``from_delta_payload(spec.delta_payload())`` reproduces
        ``spec`` exactly -- same structural key, same cache
        fingerprint, same full payload.  (Mechanically identical to
        :meth:`from_payload`, which already default-fills; this alias
        exists so manifest/wire code states which format it consumes,
        and so the round-trip is pinned by its own tests.)
        """
        return EngineSpec.from_payload(payload)

    def replace(self, **kwargs):
        """A copy with the given fields replaced (re-validated)."""
        fields = self._values()
        fields.update(kwargs)
        return type(self)(**fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._identity() == self._identity()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self._identity())

    def _identity(self):
        return (self.engine, _freeze(self._values()))

    # -- construction / pricing -------------------------------------------
    def constructor_kwargs(self):
        """Keyword arguments for :attr:`simulator_class` construction.

        Structural fields plus host fast-path toggles: the latter shape
        how the engine executes on the host without moving any counter.
        """
        kwargs = self.structural_values()
        kwargs.update(self.host_values())
        return kwargs

    def build(self, board, arch=None):
        """Instantiate the configured simulator on ``board``."""
        return self.simulator_class(board, arch=arch, **self.constructor_kwargs())

    def cost_model(self, arch=None):
        """The engine's cost model under the given arch profile."""
        raise NotImplementedError

    @classmethod
    def from_legacy(cls, dbt_config=None, sim_kwargs=None):
        """Adapter from the historical ``(dbt_config, sim_kwargs)`` pair.

        The base implementation ignores ``dbt_config`` (it only ever
        applied to the DBT engine) and treats ``sim_kwargs`` as field
        values; unknown or object-valued entries raise ``ValueError``.
        """
        return cls(**dict(sim_kwargs or {}))

    # -- descriptive views -------------------------------------------------
    @property
    def execution_model(self):
        return self.simulator_class.execution_model

    @property
    def supports_insn_trace(self):
        """Whether a per-instruction Tracer/Debugger can attach."""
        return self.simulator_class.supports_insn_trace

    @property
    def supports_block_trace(self):
        """Whether block-granularity tracing applies."""
        return self.simulator_class.supports_block_trace

    def feature_summary(self, arch=None, platform=None):
        """The engine's Figure-4 row, from a throwaway instance."""
        from repro.arch import get_arch
        from repro.machine import Board
        from repro.platform import get_platform

        if arch is None:
            arch = get_arch(self.evaluated_archs[0])
        if platform is None:
            platform = get_platform(
                "vexpress" if _arch_name(arch) == "arm" else "pcplat"
            )
        return self.build(Board(platform), arch).feature_summary()

    def describe(self):
        """Registry-driven summary used by ``repro engines``."""
        return {
            "engine": self.engine,
            "class": self.simulator_class.__name__,
            "execution_model": self.execution_model,
            "evaluated_archs": list(self.evaluated_archs),
            "supports_insn_trace": self.supports_insn_trace,
            "supports_block_trace": self.supports_block_trace,
            "structural": self.structural_values(),
            "pricing": self.pricing_values(),
            "host": self.host_values(),
        }

    def __repr__(self):
        interesting = {
            name: value
            for name, value in self._values().items()
            if value not in ({}, None)
        }
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % item for item in interesting.items()),
        )


class DBTSpec(EngineSpec):
    """QEMU-like dynamic-binary-translation engine description."""

    engine = "qemu-dbt"
    simulator_class = DBTSimulator
    fields = (
        Field("chain_enabled", True),
        Field("chain_cross_page", False),
        Field("max_block_insns", 64),
        Field("tlb_bits", 8),
        Field("tcache_capacity", 16384),
        Field("asid_tagged", False),
        Field("cost_overrides", {}, Field.PRICING),
        Field("version", None, Field.META),
        Field("memoize", True, Field.HOST),
    )
    #: Toggle pairs for single-feature attribution.  ``tlb_bits``
    #: mirrors the simulated QEMU history's one structural change
    #: (7 -> 8 across the v2.0.0 boundary); the rest are the knobs the
    #: paper's microbenchmarks were designed to separate.
    ablations = {
        "chain_enabled": (False, True),
        "chain_cross_page": (False, True),
        "max_block_insns": (16, 64),
        "tlb_bits": (7, 8),
        "tcache_capacity": (4096, 16384),
        "asid_tagged": (False, True),
    }

    def validate(self):
        # DBTConfig owns the range checks; building one validates them.
        self.to_config()

    def to_config(self):
        """The :class:`DBTConfig` the engine constructor consumes."""
        return DBTConfig(
            chain_enabled=self.chain_enabled,
            chain_cross_page=self.chain_cross_page,
            max_block_insns=self.max_block_insns,
            tlb_bits=self.tlb_bits,
            tcache_capacity=self.tcache_capacity,
            cost_overrides=dict(self.cost_overrides),
            version=self.version,
            asid_tagged=self.asid_tagged,
            memoize=self.memoize,
        )

    @classmethod
    def from_config(cls, config):
        """Lift a :class:`DBTConfig` into a spec (lossless)."""
        return cls(
            chain_enabled=config.chain_enabled,
            chain_cross_page=config.chain_cross_page,
            max_block_insns=config.max_block_insns,
            tlb_bits=config.tlb_bits,
            tcache_capacity=config.tcache_capacity,
            asid_tagged=config.asid_tagged,
            cost_overrides=dict(config.cost_overrides),
            version=config.version,
            memoize=config.memoize,
        )

    @classmethod
    def from_legacy(cls, dbt_config=None, sim_kwargs=None):
        kwargs = dict(sim_kwargs or {})
        config = kwargs.pop("config", None)
        if config is None:
            config = dbt_config
        if config is not None:
            if not isinstance(config, DBTConfig):
                raise ValueError(
                    "%s config must be a DBTConfig, got %r"
                    % (cls.engine, type(config).__name__)
                )
            if kwargs:
                raise ValueError(
                    "pass either a DBTConfig or field options for %r, "
                    "not both (extra: %s)" % (cls.engine, sorted(kwargs))
                )
            return cls.from_config(config)
        return cls(**kwargs)

    def constructor_kwargs(self):
        return {"config": self.to_config()}

    def cost_model(self, arch=None):
        return dbt_cost_model(dict(self.cost_overrides))


class InterpSpec(EngineSpec):
    """SimIt-ARM-like fast-interpreter engine description."""

    engine = "simit"
    simulator_class = FastInterpreter
    evaluated_archs = ("arm",)
    fields = (
        Field("tlb_capacity", 64),
        Field("use_decode_cache", True),
        Field("asid_tagged", False),
        Field("use_block_cache", True, Field.HOST),
    )
    ablations = {
        "tlb_capacity": (64, 256),
        "use_decode_cache": (False, True),
        "asid_tagged": (False, True),
    }

    def cost_model(self, arch=None):
        return interp_cost_model()


class DetailedSpec(EngineSpec):
    """Gem5-like detailed-interpreter engine description."""

    engine = "gem5"
    simulator_class = DetailedInterpreter
    evaluated_archs = ("arm",)
    fields = (
        Field("tlb_sets", 32),
        Field("tlb_ways", 2),
        Field("mode", "atomic"),
    )

    def validate(self):
        if self.mode not in self.simulator_class.MODES:
            raise ValueError(
                "mode must be one of %s, got %r"
                % (self.simulator_class.MODES, self.mode)
            )

    def cost_model(self, arch=None):
        return detailed_cost_model()


class VirtSpec(EngineSpec):
    """KVM-style direct-execution engine description."""

    engine = "qemu-kvm"
    simulator_class = VirtSimulator
    fields = (Field("tlb_capacity", 2048),)

    def cost_model(self, arch=None):
        return virt_cost_model(_arch_name(arch))


class NativeSpec(EngineSpec):
    """Bare-hardware execution-model description."""

    engine = "native"
    simulator_class = NativeMachine
    fields = (Field("tlb_capacity", 1024),)

    def cost_model(self, arch=None):
        return native_cost_model(_arch_name(arch))


#: The engine registry, in the paper's Figure 4/7 column order.  Every
#: other engine inventory (simulator classes, cost models, CLI listings,
#: figure column layouts) derives from this table.
SPEC_CLASSES = {
    cls.engine: cls
    for cls in (DBTSpec, InterpSpec, DetailedSpec, VirtSpec, NativeSpec)
}


def spec_class_for(engine):
    """The spec class registered under ``engine``.

    Both engine construction and cost-model dispatch funnel through
    this lookup, so "unknown simulator" errors are worded identically
    everywhere.
    """
    try:
        return SPEC_CLASSES[engine]
    except KeyError:
        raise KeyError(
            "unknown simulator %r (available: %s)"
            % (engine, ", ".join(sorted(SPEC_CLASSES)))
        ) from None


def spec_for(engine, **fields):
    """Construct a spec by registry name with field overrides."""
    return spec_class_for(engine)(**fields)


def as_engine_spec(engine, dbt_config=None, sim_kwargs=None):
    """Normalize an engine argument to an :class:`EngineSpec`.

    ``engine`` may already be a spec (returned unchanged; passing
    legacy configuration alongside one is an error) or a registry name
    accompanied by the historical ``dbt_config``/``sim_kwargs`` pair.
    """
    if isinstance(engine, EngineSpec):
        if dbt_config is not None or sim_kwargs:
            raise ValueError(
                "engine configuration must live inside the EngineSpec; "
                "dbt_config/sim_kwargs cannot be passed alongside one"
            )
        return engine
    return spec_class_for(engine).from_legacy(dbt_config, sim_kwargs)


def engines_for_arch(arch):
    """Registry names evaluated on ``arch``, in Figure 7 column order."""
    name = _arch_name(arch)
    return tuple(
        engine
        for engine, cls in SPEC_CLASSES.items()
        if name in cls.evaluated_archs
    )
