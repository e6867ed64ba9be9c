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
informational digest reads MISMATCH.

``load_obj`` is the one reader.  It reads a file as the stdlib ``json``
module does, except that each non-empty list written canonically (1 to 10
ASCII digits per entry, no leading zero, bare commas) becomes a writable
int64 array, read in one vectorised step with no Python int in between.
Any other list, and every other value, is what ``json.load`` gives; so
is the whole of a file that is not ASCII or nests too deep for the
stdlib's Python scanner, which its C scanner then reads.  Arrays encode
to the bytes of the lists they replace.  ``module_from_obj`` and
``complex_from_obj`` take such arrays over as the matrices they build,
without a copy, so the arrays turn read-only in the object passed in:
edit an object before it is read, not after.

* module file:     {p, rank, dim, perms} or {p, rank, dim, generators}
* descriptor file: {p, rank, parts: [[subgroup basis rows], ...]}
* complex file:    {p, rank, terms, differentials, augmentation, tags?, meta}

A module body is {dim, perms} when every generator is a permutation
matrix: one index vector sigma per generator, with A e_x = e_sigma[x].
Any other module is written {dim, generators}, each generator a flat
row-major matrix.  Both forms are read, so files written densely by
earlier versions still load; a ``perms`` body is checked with
``Module.from_perms``, which copies its vectors into one array, and no
matrix is made from it; a dense body of permutation matrices loads as
vectors too.  Complex terms and the augmentation target are
module bodies; a term may also be, on input only, {parts: [...],
realize: true}, to be realized on load.  Differentials and the
augmentation matrix are flat row-major lists, their shapes implied by
the adjacent term dimensions.  Stored tags become the loaded complex's
tags, each distinct part parsed once.  meta carries the
requested freeness degree and a sha256 digest of the canonical payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.decoder import JSONArray
from json.scanner import py_make_scanner

import numpy as np
import orjson

from . import config
from .complexes import Complex
from .errors import PermresError
from .groups import Group, Subgroup
from .linalg import Mat
from .modules import Module, ModuleMap
from .permutation import PermutationDescriptor, realize


class FormatError(PermresError):
    """Malformed or inconsistent input file."""


def _canonical_bytes(obj) -> bytes:
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY) + b"\n"


def canonical_dumps(obj) -> str:
    return _canonical_bytes(obj).decode()


def _flat(mat: Mat) -> list[int]:
    return mat.a.reshape(-1).tolist()


def _object(obj, what) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: expected a JSON object")
    return obj


def _is_list(obj) -> bool:
    """A JSON list: a Python list, or a leaf array from ``load_obj``."""
    return isinstance(obj, (list, np.ndarray))


def _plain(obj):
    """A leaf array as the list of Python ints it was read from; else obj."""
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _truthy(obj) -> bool:
    """JSON truth; a leaf array is a non-empty list, so true."""
    return isinstance(obj, np.ndarray) or bool(obj)


def _list(obj, what) -> list:
    if not _is_list(obj):
        raise FormatError(f"{what}: expected a JSON list")
    return obj


def _unflat(p, rows, cols, entries, what) -> Mat:
    """The rows x cols matrix of a flat entry list, checked as a whole; only a
    list that fails is walked entry by entry, to name its first bad entry.

    A leaf array is taken over, not copied: it turns read-only in the
    object too, since the matrix it now backs is immutable."""
    if len(_list(entries, what)) != rows * cols:
        raise FormatError(f"{what}: expected {rows * cols} entries, got {len(entries)}")
    a = None
    if isinstance(entries, np.ndarray):
        a = entries
    elif set(map(type, entries)) <= {int}:
        try:
            a = np.array(entries, dtype=np.int64)
        except OverflowError:
            pass
    if a is None or (a.size and (a.min() < 0 or a.max() >= p)):
        for x in _plain(entries):
            if type(x) is not int or not 0 <= x < p:
                raise FormatError(f"{what}: entry {_plain(x)!r} is not a reduced residue mod {p}")
    a.setflags(write=False)
    return Mat._wrap(p, a.reshape(rows, cols))


# ---------------------------------------------------------------------------
# modules


def _module_body(m: Module) -> dict:
    """A module's file body: its index vectors when every generator is a
    permutation, else its dense generators."""
    if m.perms is not None:
        return {"dim": m.dim, "perms": m.perms.tolist()}
    return {"dim": m.dim, "generators": [_flat(m.generator(i)) for i in range(m.group.rank)]}


def module_to_obj(m: Module) -> dict:
    return {"p": m.group.p, "rank": m.group.rank, **_module_body(m)}


def _module_body_from_obj(group: Group, obj, what="module") -> Module:
    """The module of a body holding exactly one of ``perms`` (index vectors)
    and ``generators`` (dense matrices).  Each vector is checked for its
    length and for integer entries in 0..dim-1, a leaf array as a whole and
    only a list that fails entry by entry, to name its first bad entry;
    then ``Module.from_perms`` proves each a permutation (its sorted entries
    are 0..dim-1), which refuses a repeated entry.  No matrix is made from
    a vector."""
    dim = _object(obj, what).get("dim")
    if type(dim) is not int or dim < 0 or ("generators" in obj) == ("perms" in obj):
        raise FormatError(f"{what}: need integer dim and one of generators and perms")
    key = "perms" if "perms" in obj else "generators"
    gens = _list(obj[key], f"{what} {key}")
    if len(gens) != group.rank:
        raise FormatError(f"{what}: expected {group.rank} generators, got {len(gens)}")
    if key == "generators":
        action = tuple(
            _unflat(group.p, dim, dim, g, f"{what} generator {i + 1}")
            for i, g in enumerate(gens)
        )
        return Module(group, action)
    config.check_dim_cap(dim)
    for i, sigma in enumerate(gens):
        gen = f"{what} generator {i + 1}"
        if len(_list(sigma, gen)) != dim:
            raise FormatError(f"{gen}: expected {dim} entries, got {len(sigma)}")
        if not isinstance(sigma, np.ndarray) or sigma.min() < 0 or sigma.max() >= dim:
            for x in _plain(sigma):
                if type(x) is not int or not 0 <= x < dim:
                    raise FormatError(f"{gen}: entry {_plain(x)!r} is not an index in 0..{dim - 1}")
    try:
        return Module.from_perms(group, gens)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from None


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


def _part_from_rows(group: Group, rows, what, seen: dict) -> Subgroup:
    """The subgroup of a part's rref basis rows.  Leaf-array rows of the right
    length are range-checked as one array, and each distinct one is parsed
    once: ``seen`` maps its bytes to its subgroup.  Any other rows are walked
    entry by entry, to name the first bad row or entry."""
    rows = _list(rows, f"{what} basis rows")
    n, rank = len(rows), group.rank
    a = key = None
    if all(isinstance(row, np.ndarray) and len(row) == rank for row in rows):
        a = np.array(rows, dtype=np.int64).reshape(n, rank)
        key = a.tobytes()
        if key in seen:
            return seen[key]
    if a is None or (a.size and (a.min() < 0 or a.max() >= group.p)):
        for row in map(_plain, rows):
            if not isinstance(row, list) or len(row) != rank:
                raise FormatError(f"{what}: basis rows must have length {rank}")
            for x in row:
                if type(x) is not int or not 0 <= x < group.p:
                    raise FormatError(f"{what}: entry {_plain(x)!r} out of range")
        a = np.array(rows, dtype=np.int64).reshape(n, rank)
    sub = Subgroup(group, a)
    if not np.array_equal(sub.basis.a, a):
        raise FormatError(f"{what}: basis rows are not in reduced row echelon form")
    if key is not None:
        seen[key] = sub
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
    seen = {}
    subs = tuple(
        _part_from_rows(group, rows, f"part {i + 1}", seen) for i, rows in enumerate(parts)
    )
    return PermutationDescriptor(group, subs)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class LoadedComplex:
    complex: Complex  # tagged with the file's descriptors, if it stores any
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
            [_part_rows(part) for part in tag.parts] for tag in c.tags
        ]
    payload["meta"] = {"m": m, "digest": _payload_digest(payload)}
    return payload


def _payload_digest(payload: dict) -> str:
    stripped = {k: v for k, v in payload.items() if k != "meta"}
    return hashlib.sha256(_canonical_bytes(stripped)).hexdigest()


def complex_from_obj(obj) -> LoadedComplex:
    group = _group_from_obj(obj)
    raw_terms = obj.get("terms")
    if not _is_list(raw_terms) or not len(raw_terms):
        raise FormatError("complex: need a non-empty term list")
    seen = {}  # one Subgroup per distinct part of the file
    terms = []
    for j, body in enumerate(raw_terms):
        if isinstance(body, dict) and _truthy(body.get("realize")):
            parts = tuple(
                _part_from_rows(group, rows, f"term {j} part", seen)
                for rows in _list(body.get("parts", []), f"term {j} parts")
            )
            terms.append(realize(PermutationDescriptor(group, parts)).module)
        else:
            terms.append(_module_body_from_obj(group, body, f"term {j}"))
    raw_diffs = obj.get("differentials")
    if not _is_list(raw_diffs) or len(raw_diffs) != len(terms) - 1:
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
        if not _is_list(raw_tags) or len(raw_tags) != len(terms):
            raise FormatError("complex: tags must align with terms")
        tags = tuple(
            PermutationDescriptor(
                group,
                tuple(
                    _part_from_rows(group, rows, f"tag {j} part", seen)
                    for rows in _list(tag_parts, f"tag {j}")
                ),
            )
            for j, tag_parts in enumerate(raw_tags)
        )
    meta = obj.get("meta")
    meta = _object(meta if _truthy(meta) else {}, "meta")
    m = meta.get("m")
    if m is not None and (type(m) is not int or m < 0):
        raise FormatError("meta.m must be a non-negative integer or null")
    try:
        expected = _payload_digest(obj)
    except orjson.JSONEncodeError:
        expected = None
    return LoadedComplex(
        complex=Complex(tuple(terms), diffs, aug, tags),
        m=m,
        digest=_plain(meta.get("digest")),
        digest_expected=expected,
    )


# ---------------------------------------------------------------------------
# files


def detect_kind(obj) -> str:
    if "terms" in _object(obj, "top-level value"):
        return "complex"
    if "parts" in obj:
        return "descriptor"
    if "generators" in obj or "perms" in obj:
        return "module"
    raise FormatError("unrecognized file: expected a module, descriptor, or complex")


def save_obj(path, obj) -> None:
    with open(path, "wb") as fh:
        fh.write(_canonical_bytes(obj))


def _leaf_array(seg: np.ndarray) -> np.ndarray | None:
    """The entries of a leaf list's bytes as a new int64 array, or None
    unless each entry is 1 to 10 digits without a leading zero and the
    entries are split by bare commas.  The grammar is checked before any
    entry is converted, so nothing can overflow."""
    digits = seg - ord("0")  # uint8: every byte below '0' wraps round
    # one digit per entry, as in every matrix mod p < 11: a quarter of the
    # time of the general pass below
    if seg.size % 2 and (seg[1::2] == ord(",")).all() and (digits[::2] <= 9).all():
        return digits[::2].astype(np.int64)
    cuts = np.flatnonzero(digits > 9)
    if (seg[cuts] != ord(",")).any():
        return None
    ends = np.append(cuts, seg.size)
    lens = np.diff(ends, prepend=-1) - 1
    if lens.min() < 1 or lens.max() > 10:
        return None
    if ((seg[ends - lens] == ord("0")) & (lens > 1)).any():
        return None
    values = digits[ends - 1].astype(np.int64)
    for k in range(1, int(lens.max())):
        values += np.where(lens > k, digits[ends - 1 - k], 0).astype(np.int64) * 10**k
    return values


def _parse_array(s_and_end, scan_once):
    """``JSONArray``, but a canonical leaf list is read as an int64 array."""
    s, start = s_and_end
    end = s.find("]", start)
    values = None
    # a '[' before the first ']' starts a nested list: no leaf, and its
    # bytes are left to that list's own parse
    if end > start and s.find("[", start, end) < 0:
        values = _leaf_array(np.frombuffer(s[start:end].encode("ascii"), dtype=np.uint8))
    if values is None:
        return JSONArray(s_and_end, scan_once)
    return values, end + 1


# the stdlib decoder on its Python scanner, which calls the hook above
_DECODER = json.JSONDecoder()
_DECODER.parse_array = _parse_array
_DECODER.scan_once = py_make_scanner(_DECODER)


def load_obj(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        # the Python scanner reads some non-ASCII digits as numbers, and
        # nests a third as deep as the C scanner, which reads the rest
        if text.isascii():
            try:
                return _DECODER.decode(text)
            except RecursionError:
                pass
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc
