"""Deterministic JSON file formats.

All files are canonical: sorted keys, compact separators, integer-only
entries, one trailing newline.  parse(serialize(x)) round-trips exactly
and serialize(parse(text)) reproduces the bytes, so fixed seeds give
byte-identical outputs.  On input every integer field must be a JSON
integer: ``true`` and ``false`` are rejected, not read as 1 and 0.

Canonical bytes come from orjson with sorted keys; on everything permres
writes they equal ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.
The two differ on exponent-form floats, NaN and text from U+007F up;
orjson refuses integers of 2^64 or more, nesting deeper than 254 and lone
surrogates.  A complex file holding such values still loads, but its
informational digest reads MISMATCH.  Files are read with the stdlib
``json`` module, which peaks lower in memory than orjson.

* module file:     {p, rank, dim, generators: [flat row-major, one per generator]}
* descriptor file: {p, rank, parts: [[subgroup basis rows], ...]}
* complex file:    {p, rank, terms, differentials, augmentation, tags?, meta}

Complex terms are module bodies ({dim, generators}) or, on input only,
{parts: [...], realize: true} to be realized on load.  Matrix shapes are
implied by the adjacent term dimensions.  meta carries the requested
freeness degree and a sha256 digest of the canonical payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import orjson

from .complexes import Complex
from .errors import PermresError
from .groups import Group, Subgroup
from .linalg import Mat
from .modules import Module, ModuleMap
from .permutation import PermutationDescriptor, realize


class FormatError(PermresError):
    """Malformed or inconsistent input file."""


def _canonical_bytes(obj) -> bytes:
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS) + b"\n"


def canonical_dumps(obj) -> str:
    return _canonical_bytes(obj).decode()


def _flat(mat: Mat) -> list[int]:
    return mat.a.reshape(-1).tolist()


def _object(obj, what) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: expected a JSON object")
    return obj


def _list(obj, what) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"{what}: expected a JSON list")
    return obj


def _unflat(p, rows, cols, entries, what) -> Mat:
    """The rows x cols matrix of a flat entry list, checked as a whole; only a
    list that fails is walked entry by entry, to name its first bad entry."""
    if len(_list(entries, what)) != rows * cols:
        raise FormatError(f"{what}: expected {rows * cols} entries, got {len(entries)}")
    a = None
    if set(map(type, entries)) <= {int}:
        try:
            a = np.array(entries, dtype=np.int64)
        except OverflowError:
            pass
    if a is None or (a.size and (a.min() < 0 or a.max() >= p)):
        for x in entries:
            if type(x) is not int or not 0 <= x < p:
                raise FormatError(f"{what}: entry {x!r} is not a reduced residue mod {p}")
    return Mat._wrap(p, a.reshape(rows, cols))


# ---------------------------------------------------------------------------
# modules


def _module_body(m: Module) -> dict:
    return {"dim": m.dim, "generators": [_flat(a) for a in m.action]}


def module_to_obj(m: Module) -> dict:
    return {"p": m.group.p, "rank": m.group.rank, **_module_body(m)}


def _module_body_from_obj(group: Group, obj, what="module") -> Module:
    dim = _object(obj, what).get("dim")
    gens = obj.get("generators")
    if type(dim) is not int or dim < 0 or not isinstance(gens, list):
        raise FormatError(f"{what}: need integer dim and a generator list")
    if len(gens) != group.rank:
        raise FormatError(f"{what}: expected {group.rank} generators, got {len(gens)}")
    action = tuple(
        _unflat(group.p, dim, dim, g, f"{what} generator {i + 1}")
        for i, g in enumerate(gens)
    )
    return Module(group, action)


def _group_from_obj(obj) -> Group:
    obj = _object(obj, "top-level value")
    p, rank = obj.get("p"), obj.get("rank")
    if type(p) is not int or type(rank) is not int:
        raise FormatError("need integer fields p and rank")
    try:
        return Group(p, rank)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def module_from_obj(obj) -> Module:
    group = _group_from_obj(obj)
    return _module_body_from_obj(group, obj)


# ---------------------------------------------------------------------------
# descriptors


def _part_rows(sub: Subgroup) -> list[list[int]]:
    return [[int(x) for x in row] for row in sub.basis.a]


def _part_from_rows(group: Group, rows, what) -> Subgroup:
    for row in _list(rows, f"{what} basis rows"):
        if not isinstance(row, list) or len(row) != group.rank:
            raise FormatError(f"{what}: basis rows must have length {group.rank}")
        for x in row:
            if type(x) is not int or not 0 <= x < group.p:
                raise FormatError(f"{what}: entry {x!r} out of range")
    sub = Subgroup(group, rows)
    if _part_rows(sub) != rows:
        raise FormatError(f"{what}: basis rows are not in reduced row echelon form")
    return sub


def descriptor_to_obj(d: PermutationDescriptor) -> dict:
    return {
        "p": d.group.p,
        "rank": d.group.rank,
        "parts": [_part_rows(part) for part in d.parts],
    }


def descriptor_from_obj(obj) -> PermutationDescriptor:
    group = _group_from_obj(obj)
    parts = _list(obj.get("parts"), "descriptor parts")
    subs = tuple(
        _part_from_rows(group, rows, f"part {i + 1}") for i, rows in enumerate(parts)
    )
    return PermutationDescriptor(group, subs)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class LoadedComplex:
    complex: Complex
    tags: tuple[PermutationDescriptor, ...] | None
    m: int | None
    digest: str | None
    digest_expected: str | None  # None when the payload has no canonical bytes


def complex_to_obj(c: Complex, m: int | None = None) -> dict:
    group = c.group
    payload = {
        "p": group.p,
        "rank": group.rank,
        "terms": [_module_body(t) for t in c.terms],
        "differentials": [_flat(d.matrix) for d in c.diffs],
        "augmentation": None
        if c.aug is None
        else {"target": _module_body(c.aug.target), "matrix": _flat(c.aug.matrix)},
    }
    if c.tags is not None:
        payload["tags"] = [
            [_part_rows(part) for part in tag.descriptor.parts] for tag in c.tags
        ]
    payload["meta"] = {"m": m, "digest": _payload_digest(payload)}
    return payload


def _payload_digest(payload: dict) -> str:
    stripped = {k: v for k, v in payload.items() if k != "meta"}
    return hashlib.sha256(_canonical_bytes(stripped)).hexdigest()


def complex_from_obj(obj) -> LoadedComplex:
    group = _group_from_obj(obj)
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise FormatError("complex: need a non-empty term list")
    terms = []
    for j, body in enumerate(raw_terms):
        if isinstance(body, dict) and body.get("realize"):
            parts = tuple(
                _part_from_rows(group, rows, f"term {j} part")
                for rows in _list(body.get("parts", []), f"term {j} parts")
            )
            terms.append(realize(PermutationDescriptor(group, parts)).module)
        else:
            terms.append(_module_body_from_obj(group, body, f"term {j}"))
    raw_diffs = obj.get("differentials")
    if not isinstance(raw_diffs, list) or len(raw_diffs) != len(terms) - 1:
        raise FormatError("complex: need one differential per adjacent term pair")
    diffs = tuple(
        ModuleMap(
            terms[j + 1],
            terms[j],
            _unflat(group.p, terms[j].dim, terms[j + 1].dim, d, f"differential {j + 1}"),
        )
        for j, d in enumerate(raw_diffs)
    )
    aug = None
    raw_aug = obj.get("augmentation")
    if raw_aug is not None:
        raw_aug = _object(raw_aug, "augmentation")
        target = _module_body_from_obj(group, raw_aug.get("target", {}), "augmentation target")
        aug = ModuleMap(
            terms[0],
            target,
            _unflat(
                group.p,
                target.dim,
                terms[0].dim,
                raw_aug.get("matrix", []),
                "augmentation",
            ),
        )
    tags = None
    if obj.get("tags") is not None:
        raw_tags = obj["tags"]
        if not isinstance(raw_tags, list) or len(raw_tags) != len(terms):
            raise FormatError("complex: tags must align with terms")
        tags = tuple(
            PermutationDescriptor(
                group,
                tuple(
                    _part_from_rows(group, rows, f"tag {j} part")
                    for rows in _list(tag_parts, f"tag {j}")
                ),
            )
            for j, tag_parts in enumerate(raw_tags)
        )
    meta = _object(obj.get("meta") or {}, "meta")
    m = meta.get("m")
    if m is not None and (type(m) is not int or m < 0):
        raise FormatError("meta.m must be a non-negative integer or null")
    try:
        expected = _payload_digest(obj)
    except orjson.JSONEncodeError:
        expected = None
    return LoadedComplex(
        complex=Complex(tuple(terms), diffs, aug),
        tags=tags,
        m=m,
        digest=meta.get("digest"),
        digest_expected=expected,
    )


# ---------------------------------------------------------------------------
# files


def detect_kind(obj) -> str:
    if "terms" in _object(obj, "top-level value"):
        return "complex"
    if "parts" in obj:
        return "descriptor"
    if "generators" in obj:
        return "module"
    raise FormatError("unrecognized file: expected a module, descriptor, or complex")


def save_obj(path, obj) -> None:
    with open(path, "wb") as fh:
        fh.write(_canonical_bytes(obj))


def load_obj(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise FormatError("invalid JSON: nested too deeply") from exc
