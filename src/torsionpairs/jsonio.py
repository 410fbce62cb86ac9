"""JSON forms for quivers, partitions, torsion pairs and certificates.

Certificates carry the schema tag "torsion/1".  All collections are
emitted in sorted order so identical inputs serialize byte-identically.
The tube modules are imported by the functions that read or write tube
data, so the path commands do not load them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable

from .decompose import DecompositionResult
from .intervals import Interval, model_for
from .quiver import (
    CYCLIC,
    LINEAR,
    LINEAR_UNION,
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    Quiver,
    cyclic_an,
    linear_an,
)
from .torsion import NTorsionPair, TorsionPair

if TYPE_CHECKING:
    from .tubepairs import TubeTorsionPair

SCHEMA = "torsion/1"


class CertificateError(ValueError):
    """Malformed or unreadable certificate data."""


def json_int(value: Any) -> int:
    """A certificate number: a JSON integer, else TypeError (no bool, float or string)."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


@lru_cache(maxsize=1)
def _canonical():
    """`dumps_canonical`'s encoder: a command that prints no JSON loads no `json`."""
    import json

    return json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: Any) -> str:
    """Compact JSON with sorted keys, the one form every command prints."""
    return _canonical().encode(obj)


# -- quivers ----------------------------------------------------------------


def quiver_to_obj(q: Quiver) -> dict:
    if q.shape in (LINEAR, CYCLIC):
        return {"shape": q.shape, "n": len(q.vertices)}
    return {"shape": LINEAR_UNION, "components": [list(c) for c in q.components]}


def quiver_from_obj(obj: Any) -> Quiver:
    try:
        shape = obj["shape"]
        if shape == LINEAR:
            return linear_an(json_int(obj["n"]))
        if shape == CYCLIC:
            return cyclic_an(json_int(obj["n"]))
        if shape == LINEAR_UNION:
            comps = [tuple(map(json_int, c)) for c in obj["components"]]
            if not all(comps):
                raise ValueError("a component has no vertices")
            vertices = tuple(sorted(v for c in comps for v in c))
            arrows = tuple((c[i], c[i + 1]) for c in comps for i in range(len(c) - 1))
            return Quiver(vertices, arrows, LINEAR_UNION)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # overflow: n past a tuple's size
        raise CertificateError(f"bad quiver object: {exc}") from exc
    except MemoryError as exc:  # an n within a tuple's size but past memory
        raise CertificateError("bad quiver object: too many vertices to hold") from exc
    raise CertificateError(f"unknown quiver shape {obj!r}")


# -- partitions and intervals -------------------------------------------------


def partition_to_obj(p: PartPartition) -> dict:
    return {
        "parts": [sorted(part) for part in p.parts],
        "kind": p.kind,
        "complete": p.complete,
    }


_ENDS = attrgetter("a", "b")


def intervals_to_obj(modules) -> list[list[int]]:
    return [[X.a, X.b] for X in sorted(modules, key=_ENDS)]


def intervals_from_obj(obj: Any) -> frozenset[Interval]:
    try:
        return frozenset(Interval(json_int(a), json_int(b)) for a, b in obj)
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"bad interval list: {exc}") from exc


# -- certificates -------------------------------------------------------------


def pair_certificate(q: Quiver, tp: TorsionPair) -> dict:
    return {
        "schema": SCHEMA,
        "category": quiver_to_obj(q),
        "torsion": intervals_to_obj(tp.torsion),
        "free": intervals_to_obj(tp.free),
    }


class PairRecords:
    """`pair_certificate` text for the pairs of q held as (torsion, free)
    masks over `model_for(q)`.

    `fragments` holds the encoded `[a, b]` of every object in index order,
    which is the (a, b) order of `intervals_to_obj`, so a class is its
    fragments joined in bit order.  The fragments are cut into chunks of
    eight, in index order, and each chunk gets the table of the joins of
    all its 256 subsets, bit k of the table index picking its k-th
    fragment (the byte tables of Knuth, TAOCP 4A, 7.1.3).  A record puts
    the joined free and torsion lists into the frame of the encoded
    certificate of the empty pair: its keys are sorted, so the category
    comes before both lists.
    """

    def __init__(self, q: Quiver):
        self.fragments = tuple(dumps_canonical([X.a, X.b]) for X in model_for(q).objects)
        chunks = range(0, len(self.fragments), 8)
        self._tables = tuple(_subset_joins(self.fragments[i : i + 8]) for i in chunks)
        frame = dumps_canonical(pair_certificate(q, TorsionPair(frozenset(), frozenset())))
        head, middle, tail = frame.rsplit("[]", 2)
        self._head, self._middle, self._tail = head + "[", "]" + middle + "[", "]" + tail

    def join(self, mask: int) -> str:
        """The class of the mask as comma-joined fragments: one table
        lookup per nonzero byte of the mask, up to its highest set bit."""
        chunks = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return ",".join([table[byte] for table, byte in zip(self._tables, chunks) if byte])

    def record(self, torsion: int, free: int) -> str:
        """`dumps_canonical(pair_certificate(q, pair))` for the pair of the masks."""
        return self._head + self.join(free) + self._middle + self.join(torsion) + self._tail


def _subset_joins(fragments: tuple[str, ...]) -> tuple[str, ...]:
    """The comma-joined fragments of every subset, indexed by its bitmask."""
    table = [""]
    for fragment in fragments:
        table += [f"{joined},{fragment}" if joined else fragment for joined in table]
    return tuple(table)


def ntp_certificate(q: Quiver, ntp: NTorsionPair) -> dict:
    return {
        "schema": SCHEMA,
        "category": quiver_to_obj(q),
        "parts": [intervals_to_obj(part) for part in ntp.parts],
    }


def tube_certificate(data: TubeTorsionPair) -> dict:
    return tube_partition_obj(data.rank, data.kind, data.delta, data.residual_partition)


def tube_partition_obj(rank: int, kind: int, delta: Iterable[int], tail: Iterable[Iterable[int]]) -> dict:
    """The certificate of a classified tube pair, from its partition alone."""
    return {
        "schema": SCHEMA,
        "rank": rank,
        "kind": kind,
        "delta": sorted(delta),
        "residual_partition": [sorted(p) for p in tail],
    }


def tube_pair_from_obj(obj: Any) -> TubeTorsionPair:
    from .tubepairs import partition_to_tube_tp

    try:
        rank = json_int(obj["rank"])
        kind = json_int(obj["kind"])
        delta = frozenset(map(json_int, obj["delta"]))
        tail = tuple(frozenset(map(json_int, p)) for p in obj["residual_partition"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad tube certificate: {exc}") from exc
    kind_name = STRONG_ONE if kind == 1 else STRONG_TWO
    partition = PartPartition((delta,) + tail, kind_name, complete=True)
    try:
        return partition_to_tube_tp(partition, kind, rank)
    except ValueError as exc:
        raise CertificateError(f"bad tube certificate: {exc}") from exc


_PAYLOAD_FIELDS = {"rank": "tube", "parts": "ntp", "torsion": "pair", "free": "pair"}


def certificate_kind(obj: Any) -> str:
    """One of "pair", "ntp", "tube" based on the fields present.

    Fields of more than one kind make the certificate ambiguous.
    """
    if not isinstance(obj, dict):
        raise CertificateError("certificate must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise CertificateError(f"certificate schema must be {SCHEMA!r}")
    kinds = sorted({kind for field, kind in _PAYLOAD_FIELDS.items() if field in obj})
    if len(kinds) > 1:
        raise CertificateError(f"certificate is ambiguous: it carries {' and '.join(kinds)} payloads")
    if not kinds or (kinds == ["pair"] and not ("torsion" in obj and "free" in obj)):
        raise CertificateError("certificate carries none of the known payloads")
    return kinds[0]


def _interval_category(obj: Any) -> Quiver:
    q = quiver_from_obj(obj.get("category"))
    if not q.is_linear_type:
        raise CertificateError(f"a {q.shape} category has no interval modules")
    return q


def pair_from_obj(obj: Any) -> tuple[Quiver, TorsionPair]:
    q = _interval_category(obj)
    tp = TorsionPair(intervals_from_obj(obj["torsion"]), intervals_from_obj(obj["free"]))
    return q, tp


def ntp_from_obj(obj: Any) -> tuple[Quiver, NTorsionPair]:
    q = _interval_category(obj)
    try:
        parts = tuple(intervals_from_obj(part) for part in obj["parts"])
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"bad parts list: {exc}") from exc
    if not parts:
        raise CertificateError("an n-torsion pair needs at least one part")
    return q, NTorsionPair(parts)


# -- decomposition results -----------------------------------------------------


def decomposition_to_obj(result: DecompositionResult) -> dict:
    return {
        "partition": partition_to_obj(result.partition),
        "residual": {
            "torsion": intervals_to_obj(result.residual.torsion),
            "free": intervals_to_obj(result.residual.free),
        },
        "residual_category": quiver_to_obj(result.residual_quiver),
        "trace": [
            {"stage": t.index, "side": t.side, "vertices": sorted(t.vertices)}
            for t in result.trace
        ],
    }
