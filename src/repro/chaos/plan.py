"""Declarative fault plans: what breaks, where, when, and how badly.

A :class:`FaultPlan` is a seeded, serializable description of every
fault a run should suffer — the paper's "one loss event over the
Sunnyvale–Geneva path ruins the record run" thought experiment becomes a
three-line JSON file instead of ad-hoc tap wiring.  Plans are pure data
(frozen dataclasses), load from JSON/dicts, and carry a stable
:meth:`~FaultPlan.fingerprint` that the result cache folds into its keys
so chaotic and clean runs can never alias.

The taxonomy (see ``docs/RESILIENCE.md``):

========================  =====================================================
kind                      effect while the fault window is open
========================  =====================================================
``link_flap``             the link goes dark — every matching frame is lost
``loss_burst``            each matching frame is dropped with ``probability``
``corruption``            like loss, but accounted as FCS-discarded frames
``duplicate``             each matching frame is delivered twice w.p. ``p``
``reorder_window``        frames are held ``delay_s`` w.p. ``p`` (overtaking)
``buffer_degrade``        router/switch queue capacity is scaled by ``factor``
``nic_stall``             the adapter freezes; rx frames park until recovery
``nic_reset``             rx ring cleared at onset, ingress dropped throughout
``cpu_contention``        a competing load steals ``factor`` of the host CPU
========================  =====================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple, Union

from repro.errors import ChaosError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: Every fault kind the injector knows how to arm.
FAULT_KINDS: Tuple[str, ...] = (
    "link_flap", "loss_burst", "reorder_window", "corruption", "duplicate",
    "buffer_degrade", "nic_stall", "nic_reset", "cpu_contention",
)

#: Target categories each kind may bind to (used by the injector's
#: matcher; kept here so plan validation can reject bad ``target``
#: category prefixes without importing the injector).
KIND_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "link_flap": ("link",),
    "loss_burst": ("link",),
    "reorder_window": ("link",),
    "corruption": ("link",),
    "duplicate": ("link",),
    "buffer_degrade": ("router", "switch_port"),
    "nic_stall": ("nic",),
    "nic_reset": ("nic",),
    "cpu_contention": ("cpu",),
}

#: All registrable target categories.
CATEGORIES: Tuple[str, ...] = ("link", "router", "switch_port", "nic", "cpu")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        ``fnmatch`` glob over component names, optionally prefixed with
        a category — ``"wan.oc48*"``, ``"link:b2b*"``, ``"nic:*"``.
    start_s / duration_s:
        The fault window ``[start_s, start_s + duration_s)`` in
        simulation seconds.  A frame delivered exactly at the window's
        opening instant is affected; one at the closing instant is not.
    probability:
        Per-frame chance the fault acts (drawn from the fault's own
        seeded stream; irrelevant to window-level kinds such as
        ``buffer_degrade``).
    delay_s:
        Hold time for ``reorder_window``.
    factor:
        Scale knob: queue-capacity multiplier for ``buffer_degrade``,
        stolen CPU fraction for ``cpu_contention``.
    kinds:
        Frame kinds the fault applies to (``("data",)``, ``("ack",)``,
        or ``("*",)`` for every frame).
    label:
        Free-form note carried into telemetry and the scorecard.
    """

    kind: str
    target: str
    start_s: float
    duration_s: float
    probability: float = 1.0
    delay_s: float = 0.0
    factor: float = 1.0
    kinds: Tuple[str, ...] = ("data",)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosError(f"unknown fault kind {self.kind!r}; expected "
                             f"one of {FAULT_KINDS}")
        if not self.target:
            raise ChaosError("fault target glob cannot be empty")
        if ":" in self.target:
            prefix = self.target.split(":", 1)[0]
            if prefix not in CATEGORIES:
                raise ChaosError(
                    f"unknown target category {prefix!r}; expected one of "
                    f"{CATEGORIES}")
            if prefix not in KIND_CATEGORIES[self.kind]:
                raise ChaosError(
                    f"fault kind {self.kind!r} cannot target category "
                    f"{prefix!r} (allowed: {KIND_CATEGORIES[self.kind]})")
        if self.start_s < 0:
            raise ChaosError(f"start_s must be >= 0, got {self.start_s!r}")
        if self.duration_s <= 0:
            raise ChaosError(
                f"duration_s must be > 0, got {self.duration_s!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ChaosError(
                f"probability must be in [0, 1], got {self.probability!r}")
        if self.delay_s < 0:
            raise ChaosError(f"delay_s must be >= 0, got {self.delay_s!r}")
        if self.factor <= 0:
            raise ChaosError(f"factor must be > 0, got {self.factor!r}")
        if not self.kinds:
            raise ChaosError("kinds cannot be empty; use ('*',) for all")
        object.__setattr__(self, "kinds", tuple(self.kinds))

    @property
    def end_s(self) -> float:
        """Closing instant of the fault window."""
        return self.start_s + self.duration_s

    @property
    def category(self) -> str:
        """Explicit target category, or ``""`` when the glob is bare."""
        return self.target.split(":", 1)[0] if ":" in self.target else ""

    @property
    def name_glob(self) -> str:
        """The component-name glob with any category prefix stripped."""
        return (self.target.split(":", 1)[1] if ":" in self.target
                else self.target)

    def matches_frame_kind(self, frame_kind: str) -> bool:
        """Whether a frame of ``frame_kind`` is subject to this fault."""
        return "*" in self.kinds or frame_kind in self.kinds

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        out["kinds"] = list(self.kinds)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ChaosError(f"fault spec must be a dict, got "
                             f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ChaosError(f"unknown fault spec field(s): "
                             f"{', '.join(unknown)}")
        kwargs = dict(data)
        if "kinds" in kwargs:
            kinds = kwargs["kinds"]
            if isinstance(kinds, str):
                kinds = (kinds,)
            kwargs["kinds"] = tuple(kinds)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ChaosError(f"invalid fault spec: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of :class:`FaultSpec` entries.

    The empty plan is a true no-op: the injector never attaches, no
    events are scheduled, and the cache fingerprint stays absent, so a
    run under an empty plan is byte-identical to a run with chaos off.
    """

    name: str = "plan"
    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ChaosError(f"plan seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ChaosError(
                    f"plan faults must be FaultSpec, got "
                    f"{type(spec).__name__}")

    @property
    def is_empty(self) -> bool:
        """True when the plan carries no faults at all."""
        return not self.faults

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ChaosError(
                f"fault plan must be a dict, got {type(data).__name__}")
        unknown = sorted(set(data) - {"name", "seed", "faults"})
        if unknown:
            raise ChaosError(f"unknown fault plan field(s): "
                             f"{', '.join(unknown)}")
        faults = data.get("faults", ())
        if not isinstance(faults, (list, tuple)):
            raise ChaosError("plan 'faults' must be a list")
        return cls(
            name=data.get("name", "plan"),
            seed=data.get("seed", 0),
            faults=tuple(FaultSpec.from_dict(entry) for entry in faults))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "FaultPlan":
        """Load a plan from a JSON file."""
        p = pathlib.Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise ChaosError(f"cannot read fault plan {p}: {exc}") from exc
        return cls.from_json(text)

    def fingerprint(self) -> str:
        """Stable hex digest of the plan's full content.

        Deliberately computed from the canonical JSON form (not object
        identity), so two equal plans — loaded from a file, built in
        code, round-tripped through :meth:`to_dict` — share cache
        entries, while any field change invalidates them.
        """
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()
