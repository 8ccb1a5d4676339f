"""The declarative spec contract of docs/SPECS.md, implemented once.

Fault profiles (:mod:`repro.faults.profile`) and update plans
(:mod:`repro.updates.plan`) are both spec families: frozen dataclasses
that compile against a context into a concrete schedule.  :class:`Spec`
is their tag registry, JSON round trip and ``|`` composition;
:class:`SpecContext` is the compile window, seed and clamp.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Mapping
from typing import Any, ClassVar, TypeVar

__all__ = ["Spec", "SpecContext"]

S = TypeVar("S", bound="Spec")


class Spec:
    """Base of every spec family.

    A family root sets ``noun`` (e.g. ``"fault profile"``) and gets a
    registry of its own, so two families may both use a tag (both have
    ``"compose"``).  Its concrete subclasses are frozen dataclasses that
    set ``spec_type`` and are registered under it.  Fields may nest
    tuples and same-family specs to any depth.
    """

    #: Set on a family root only: what error messages call its specs.
    noun: ClassVar[str]
    #: The JSON ``type`` tag of a concrete spec.
    spec_type: ClassVar[str] = ""
    #: The family root and its tag -> class registry.
    family: ClassVar[type[Spec]]
    registry: ClassVar[dict[str, type[Spec]]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "noun" in cls.__dict__:
            cls.family = cls
            cls.registry = {}
        tag = cls.__dict__.get("spec_type", "")
        if tag:
            cls.registry[tag] = cls

    # -- composition ---------------------------------------------------
    def __or__(self, other: Spec) -> Any:
        """``a | b``: the family's Compose of both, flattened so its parts
        are always leaves.  Specs of different families do not compose."""
        if not isinstance(other, self.family):
            return NotImplemented
        compose = self.registry["compose"]
        mine = (self.parts  # type: ignore[attr-defined]
                if isinstance(self, compose) else (self,))
        theirs = (other.parts  # type: ignore[attr-defined]
                  if isinstance(other, compose) else (other,))
        return compose(parts=mine + theirs)  # type: ignore[call-arg]

    # -- serialization -------------------------------------------------
    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form (``{"type": …, <fields>}``) — what rides in
        trial params and on the CLI's spec flags."""
        data: dict[str, Any] = {"type": self.spec_type}
        for f in fields(self):  # type: ignore[arg-type]
            data[f.name] = _lower(getattr(self, f.name))
        return data

    @classmethod
    def from_jsonable(cls: type[S], data: Any) -> S:
        """Reconstruct any spec registered in this family (round-trip
        inverse of :meth:`to_jsonable`).  A missing tag, an unknown tag
        and an unknown field each raise :class:`ValueError`."""
        family = cls.family
        if not isinstance(data, Mapping) or "type" not in data:
            raise ValueError(
                f"a serialized {family.__name__} is an object with a "
                f"'type' tag; got {data!r}")
        tag = data["type"]
        spec_cls = family.registry.get(tag)
        if spec_cls is None:
            raise ValueError(
                f"unknown {family.noun} type {tag!r} "
                f"(known: {', '.join(sorted(family.registry))})")
        payload = {k: v for k, v in data.items() if k != "type"}
        known = {f.name for f in fields(spec_cls)}  # type: ignore[arg-type]
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(unknown)} for {family.noun} "
                f"type {tag!r}")
        kwargs = {k: _raise(family, v) for k, v in payload.items()}
        return spec_cls(**kwargs)  # type: ignore[call-arg,return-value]


def _lower(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_jsonable()
    if isinstance(value, tuple):
        return [_lower(v) for v in value]
    return value


def _raise(family: type[Spec], value: Any) -> Any:
    if isinstance(value, Mapping):
        return family.from_jsonable(value)
    if isinstance(value, list):
        return tuple(_raise(family, v) for v in value)
    return value


_WINDOW_FIELDS = frozenset({"horizon_ns", "start_ns", "seed"})


@dataclass(frozen=True)
class SpecContext:
    """Where and when a spec compiles: the window ``[start_ns, end_ns)``
    and the seed.  Subclasses add inventory tuple fields (lists, e.g.
    from JSON, are stored as tuples) and the family's one ``emit``
    point, which places every instant through :meth:`clamp`."""

    horizon_ns: int
    start_ns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be > 0, got {self.horizon_ns}")
        if self.start_ns < 0:
            raise ValueError(f"start_ns must be >= 0, got {self.start_ns}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _WINDOW_FIELDS and not isinstance(value, tuple):
                object.__setattr__(self, f.name, tuple(value))

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.horizon_ns

    def clamp(self, at_ns: int) -> int:
        """Clamp one scheduled instant into ``[start_ns, end_ns)`` — uniform
        draws can round onto the horizon edge, and correlated, cascade or
        two-phase offsets can overshoot it."""
        return min(max(int(at_ns), self.start_ns), self.end_ns - 1)
