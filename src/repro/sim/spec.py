"""Typed, serializable engine descriptions (the EngineSpec layer).

An :class:`EngineSpec` is the *single* description of an execution
engine configuration, threaded unchanged through every layer of an
experiment: the harness builds the engine from it, its structural
fields enter the cell fingerprint by which the runner dedups a grid
and the result dataset keys stored counter deltas, and the analysis
drivers construct their grids from it.

Every spec separates two kinds of fields:

- **structural** fields change what the engine actually does -- the
  guest-visible counter deltas (TLB shape and tagging, decode cache,
  DBT chaining/block/translation-cache parameters, ASID tagging);
- **pricing** fields only change how a recorded delta is converted to
  modeled host time (per-counter cost overrides).

Two specs with equal structural fields execute identical guest
instruction streams, so they share one cell fingerprint, one
execution and one dataset row; their pricing fields are applied
afterwards ("execute once, price many").  A third kind, **meta**,
carries labels (the synthetic QEMU version name) that affect neither
execution nor pricing but must survive serialization.  Host-side fast
paths (predecoded block replay, translation memoization) are not
fields at all: they are always on.

Field values are canonicalized on construction.  Each is first brought
to its field's type, the default's (:meth:`Field.coerce`): an
exact-valued number converts (``1`` to ``True`` for a bool field,
``8.0`` to ``8`` for an int field), so values that compare equal build
one spec -- one :meth:`EngineSpec.cache_key_token`, one dataset
fingerprint -- and any other mismatch raises :class:`ValueError`.
Then only JSON scalars, lists/tuples and string-keyed dicts are
accepted.  Arbitrary objects (a pre-built TLB, a config object
smuggled in as a constructor kwarg) are rejected with
:class:`ValueError` instead of leaking an unstable ``repr`` -- whose
embedded ``0x...`` id would silently split one cell into many, in the
runner's dedup and the on-disk result dataset.

The registry (:data:`SPEC_CLASSES`) is the one source of truth for
which engines exist: the simulator-class table, cost-model dispatch and
CLI inventories are all derived from it.
"""

import json

from repro.sim.costs import (
    dbt_cost_model,
    detailed_cost_model,
    interp_cost_model,
    native_cost_model,
    virt_cost_model,
)
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
    :class:`ValueError`: such values cannot produce a stable cell
    fingerprint.
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
        "cell fingerprint)" % (where, value)
    )


def _arch_name(arch):
    return getattr(arch, "name", arch) or "arm"


class Field:
    """One declared engine option: name, default, kind and type.

    The type is the default's (``None`` for a ``None`` default, which
    accepts any canonical value).  :meth:`coerce` brings a given value
    to it, so values that compare equal (``1``/``1.0``/``True``) build
    one spec with one cache key token and one fingerprint.
    """

    STRUCTURAL = "structural"
    PRICING = "pricing"
    META = "meta"

    __slots__ = ("name", "default", "kind", "type")

    def __init__(self, name, default, kind=STRUCTURAL):
        self.name = name
        self.default = default
        self.kind = kind
        self.type = None if default is None else type(default)

    def coerce(self, value, where):
        """``value`` as this field's type.

        An exact-valued number converts (``1`` to ``True`` for a bool
        field, ``8.0`` to ``8`` for an int field); anything else of the
        wrong type raises :class:`ValueError`."""
        kind = self.type
        if kind is None or type(value) is kind:
            return value
        number = isinstance(value, (int, float))
        if kind is bool and number and value in (0, 1):
            return bool(value)
        if kind is int and number and float(value).is_integer():
            return int(value)
        raise ValueError(
            "%s: %r is not a valid %s value" % (where, value, kind.__name__)
        )

    def __repr__(self):
        return "Field(%r, default=%r, kind=%r)" % (self.name, self.default, self.kind)


class EngineSpec:
    """A typed, validated, hashable description of one engine config.

    Subclasses declare the registry name (:attr:`engine`), the
    simulator class they build, their fields, and the guest
    architectures the paper evaluates them on (Figure 7 columns).

    A spec is immutable once built: assigning an attribute raises
    :class:`AttributeError` (:meth:`replace` makes a changed copy).
    That is what lets an instance compute its canonical JSON tokens
    (:meth:`cache_key_token`, and the one behind ``==`` and ``hash``)
    once and build its cost model once per arch, so the many jobs and
    sweeps sharing one spec share those values too.
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
            where = "%s.%s" % (cls.engine, field.name)
            value = field.coerce(kwargs.get(field.name, field.default), where)
            object.__setattr__(self, field.name, canonical(value, where))
        self.validate()
        object.__setattr__(
            self,
            "_cache_key_token",
            json.dumps(self.cache_key_payload(), sort_keys=True),
        )
        object.__setattr__(
            self, "_payload_token", json.dumps(self.to_payload(), sort_keys=True)
        )
        object.__setattr__(self, "_cost_models", {})

    def __setattr__(self, name, value):
        raise AttributeError(
            "%s is immutable (use replace(%s=...) for a changed copy)"
            % (type(self).__name__, name)
        )

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

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

    # -- keys and serialization -------------------------------------------
    def cache_key_payload(self):
        """JSON-serializable identity for the on-disk result dataset."""
        return {"engine": self.engine, "structure": self.structural_values()}

    def cache_key_token(self):
        """:meth:`cache_key_payload` as canonical JSON text.

        Computed once, when the spec is built.  It is the payload's
        exact JSON text, so it can stand in for the payload in a memo
        of cell fingerprints; specs with equal tokens execute alike,
        which is how the runner shards a grid by engine structure."""
        return self._cache_key_token

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
        ``spec`` exactly -- same cache key token, same cell
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
        """Equal when :meth:`to_payload` is: compares the canonical JSON
        of every field, built once when the spec is."""
        return (
            type(other) is type(self)
            and other._payload_token == self._payload_token
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self._payload_token)

    # -- construction / pricing -------------------------------------------
    def constructor_kwargs(self):
        """Keyword arguments for :attr:`simulator_class` construction."""
        return self.structural_values()

    def build(self, board, arch=None):
        """Instantiate the configured simulator on ``board``."""
        return self.simulator_class(board, arch=arch, **self.constructor_kwargs())

    def cost_model(self, arch=None):
        """The engine's cost model under the given arch profile.

        Built once per arch name and then shared by every caller of
        this spec, so treat it as read-only."""
        arch_name = _arch_name(arch)
        model = self._cost_models.get(arch_name)
        if model is None:
            model = self._cost_models[arch_name] = self._build_cost_model(arch_name)
        return model

    def _build_cost_model(self, arch_name):
        """A new cost model for ``arch_name``; subclasses override."""
        raise NotImplementedError

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
    """QEMU-like dynamic-binary-translation engine description.

    Fields
    ------
    chain_enabled:
        Patch direct same-page branches to jump straight to the
        successor block, bypassing the dispatcher.
    chain_cross_page:
        Also chain direct branches that cross a page boundary (off by
        default: cross-page chains are unsafe under remapping, so QEMU
        avoids them -- this is why inter-page control flow goes through
        the block cache in Figure 4).
    max_block_insns:
        Translation stops after this many instructions (blocks never
        cross a page boundary regardless).
    tlb_bits:
        log2 of the number of direct-mapped softmmu TLB slots.
    tcache_capacity:
        Maximum number of cached translations; on overflow the whole
        code cache is flushed, QEMU-style.
    asid_tagged:
        Tag softmmu TLB slots with the guest ASID so address-space
        switches retag instead of flushing (off by default, matching
        QEMU's historical flush-on-context-switch behaviour).
    cost_overrides:
        Per-counter cost-table overrides (see
        :data:`repro.sim.costs.DBT_BASE_COSTS`).
    version:
        Optional QEMU release label (see :mod:`repro.sim.dbt.versions`).
    """

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
        if self.max_block_insns < 1:
            raise ValueError("max_block_insns must be positive")
        if not 2 <= self.tlb_bits <= 16:
            raise ValueError("tlb_bits out of range")

    def translation_key(self):
        """The fields generated code depends on.

        Lowered source is a pure function of (instruction bytes, start
        vaddr, this key): chaining flags change emitted exits and
        ``max_block_insns`` changes where decoding stops.  Everything
        else (TLB geometry, cache capacity, costs) prices or places
        blocks without altering their code, so memo/code-store entries
        are shared across those dimensions -- the whole point of
        memoizing a version sweep.
        """
        return (self.chain_enabled, self.chain_cross_page, self.max_block_insns)

    def constructor_kwargs(self):
        return {"spec": self}

    def _build_cost_model(self, arch_name):
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
    )
    ablations = {
        "tlb_capacity": (64, 256),
        "use_decode_cache": (False, True),
        "asid_tagged": (False, True),
    }

    def _build_cost_model(self, arch_name):
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

    def _build_cost_model(self, arch_name):
        return detailed_cost_model()


class VirtSpec(EngineSpec):
    """KVM-style direct-execution engine description."""

    engine = "qemu-kvm"
    simulator_class = VirtSimulator
    fields = (Field("tlb_capacity", 2048),)

    def _build_cost_model(self, arch_name):
        return virt_cost_model(arch_name)


class NativeSpec(EngineSpec):
    """Bare-hardware execution-model description."""

    engine = "native"
    simulator_class = NativeMachine
    fields = (Field("tlb_capacity", 1024),)

    def _build_cost_model(self, arch_name):
        return native_cost_model(arch_name)


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


#: ``registry name -> default spec``: built once per process, then
#: shared by every caller (specs are immutable), so all the jobs of a
#: grid that name an engine share its tokens and cost models.
_DEFAULT_SPECS = {}


def as_engine_spec(engine):
    """Normalize an engine argument to an :class:`EngineSpec`.

    ``engine`` may already be a spec (returned unchanged) or a registry
    name (its one shared default spec).
    """
    if isinstance(engine, EngineSpec):
        return engine
    spec = _DEFAULT_SPECS.get(engine)
    if spec is None:
        spec = _DEFAULT_SPECS[engine] = spec_class_for(engine)()
    return spec


def engines_for_arch(arch):
    """Registry names evaluated on ``arch``, in Figure 7 column order."""
    name = _arch_name(arch)
    return tuple(
        engine
        for engine, cls in SPEC_CLASSES.items()
        if name in cls.evaluated_archs
    )
