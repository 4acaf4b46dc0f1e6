"""The construction table, and plain-text serialization for class parameters
and codebook files.

CONSTRUCTIONS maps each ``construction=`` name to the record of functions that
serve the family; callers dispatch through it instead of testing types.

Parameter records are flat ``key=value`` lines with comma lists for vectors;
a ``construction=`` line selects the layout. The burst-code record embeds its
anchor as an ``anchor.``-prefixed sub-record and one ``(s_r,s_c).``-keyed
record per residue subarray. Codebook files start with a ``n q count`` header
followed by the arrays in the shared text format, blank-line separated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .code_c1 import C1Params, c1_check, c1_decode
from .code_c2 import C2Params, c2_check, c2_decode
from .code_c3 import C3Params, c3_check, c3_decode, check_burst_lengths
from .core_array import Array2D, array_from_text, array_to_text
from .errors import InvalidParameterError
from .outcome import DecodeOutcome

AnyParams = C1Params | C2Params | C3Params

_RESIDUE_KEY = re.compile(r"^\((\d+),(\d+)\)\.([abd])$")


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_vec(vs) -> str:
    return ",".join(str(v) for v in vs)


def _c1_lines(p: C1Params) -> list[str]:
    return [
        "construction=c1",
        f"n={p.n}",
        f"q={p.q}",
        f"a={_fmt_vec(p.a)}",
        f"b={_fmt_vec(p.b)}",
        f"c={p.c}",
        f"d={p.d}",
        f"relaxed={_fmt_bool(p.relaxed)}",
    ]


def _c2_lines(p: C2Params, prefix: str = "") -> list[str]:
    lines = [f"{prefix}construction=c2"]
    if p.rows == p.cols:
        lines.append(f"{prefix}n={p.rows}")
    else:
        lines.append(f"{prefix}rows={p.rows}")
        lines.append(f"{prefix}cols={p.cols}")
    lines += [
        f"{prefix}q={p.q}",
        f"{prefix}l={p.l}",
        f"{prefix}a={_fmt_vec(p.a)}",
        f"{prefix}b={_fmt_vec(p.b)}",
        f"{prefix}c1={p.c[0]}",
        f"{prefix}c2={p.c[1]}",
    ]
    lines += [f"{prefix}d{k + 1}={p.d[k]}" for k in range(4)]
    lines.append(f"{prefix}rows_distinct={_fmt_bool(p.rows_distinct)}")
    return lines


def _c3_lines(p: C3Params) -> list[str]:
    lines = [
        "construction=c3",
        f"n={p.n}",
        f"q={p.q}",
        f"tr={p.t_r}",
        f"tc={p.t_c}",
        f"l={p.l}",
    ]
    lines += _c2_lines(p.anchor, prefix="anchor.")
    for s_r in range(1, p.t_r + 1):
        for s_c in range(1, p.t_c + 1):
            key = f"({s_r},{s_c})"
            lines.append(f"{key}.a={_fmt_vec(p.a[s_r - 1][s_c - 1])}")
            lines.append(f"{key}.b={_fmt_vec(p.b[s_r - 1][s_c - 1])}")
            lines.append(f"{key}.d={_fmt_vec(p.d[s_r - 1][s_c - 1])}")
    return lines


class _Record:
    """A key=value record that tracks consumption so leftovers are rejected."""

    def __init__(self, fields: dict[str, str], what: str):
        self.fields = fields
        self.what = what
        self.used: set[str] = set()

    def take(self, key: str) -> str:
        if key not in self.fields:
            raise InvalidParameterError(f"{self.what} record is missing {key!r}")
        self.used.add(key)
        return self.fields[key]

    def has(self, key: str) -> bool:
        return key in self.fields

    def take_int(self, key: str) -> int:
        raw = self.take(key)
        try:
            return int(raw)
        except ValueError as exc:
            raise InvalidParameterError(f"{self.what}: {key}={raw!r} is not an integer") from exc

    def take_vec(self, key: str) -> tuple[int, ...]:
        raw = self.take(key)
        if not raw:
            return ()
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError as exc:
            raise InvalidParameterError(f"{self.what}: {key}={raw!r} is not a comma list") from exc

    def take_bool(self, key: str) -> bool:
        raw = self.take(key)
        if raw not in ("true", "false"):
            raise InvalidParameterError(f"{self.what}: {key}={raw!r} is not true/false")
        return raw == "true"

    def finish(self) -> None:
        leftover = sorted(set(self.fields) - self.used)
        if leftover:
            raise InvalidParameterError(f"{self.what} record has unknown keys {leftover}")


def _split_lines(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, value = ln.partition("=")
        if not sep:
            raise InvalidParameterError(f"expected key=value, got {ln!r}")
        key = key.strip()
        if key in fields:
            raise InvalidParameterError(f"duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def _parse_c1(fields: dict[str, str]) -> C1Params:
    rec = _Record(fields, "c1")
    rec.take("construction")
    p = C1Params(
        n=rec.take_int("n"),
        q=rec.take_int("q"),
        a=rec.take_vec("a"),
        b=rec.take_vec("b"),
        c=rec.take_int("c"),
        d=rec.take_int("d"),
        relaxed=rec.take_bool("relaxed"),
    )
    rec.finish()
    return p


def _parse_c2(fields: dict[str, str], what: str = "c2") -> C2Params:
    rec = _Record(fields, what)
    if rec.take("construction") != "c2":
        raise InvalidParameterError(f"{what} record must use construction=c2")
    if rec.has("n"):
        rows = cols = rec.take_int("n")
    else:
        rows = rec.take_int("rows")
        cols = rec.take_int("cols")
    p = C2Params(
        rows=rows,
        cols=cols,
        q=rec.take_int("q"),
        l=rec.take_int("l"),
        a=rec.take_vec("a"),
        b=rec.take_vec("b"),
        c=(rec.take_int("c1"), rec.take_int("c2")),
        d=tuple(rec.take_int(f"d{k}") for k in (1, 2, 3, 4)),
        rows_distinct=rec.take_bool("rows_distinct"),
    )
    rec.finish()
    return p


def _parse_c3(fields: dict[str, str]) -> C3Params:
    top: dict[str, str] = {}
    anchor_fields: dict[str, str] = {}
    slots: dict[tuple[int, int], dict[str, str]] = {}
    for key, value in fields.items():
        if key.startswith("anchor."):
            anchor_fields[key[len("anchor."):]] = value
            continue
        m = _RESIDUE_KEY.match(key)
        if m:
            pos = (int(m.group(1)), int(m.group(2)))
            slots.setdefault(pos, {})[m.group(3)] = value
            continue
        top[key] = value

    rec = _Record(top, "burst-code")
    if rec.take("construction") != "c3":
        raise InvalidParameterError("not a burst-code record")
    n = rec.take_int("n")
    q = rec.take_int("q")
    t_r = rec.take_int("tr")
    t_c = rec.take_int("tc")
    l = rec.take_int("l")
    rec.finish()
    # Checked before anything sized t_r x t_c exists; the slot checks below
    # only walk the slots the record text actually holds.
    check_burst_lengths(n, t_r, t_c)
    anchor = _parse_c2(anchor_fields, "anchor")

    in_grid = all(1 <= s_r <= t_r and 1 <= s_c <= t_c for s_r, s_c in slots)
    if not in_grid or len(slots) != t_r * t_c:
        raise InvalidParameterError(
            f"residue records cover {sorted(slots)}, want (1,1) to ({t_r},{t_c})"
        )
    grids: dict[str, list[list[tuple[int, ...]]]] = {k: [] for k in "abd"}
    for s_r in range(1, t_r + 1):
        for name in "abd":
            grids[name].append([])
        for s_c in range(1, t_c + 1):
            slot = _Record(slots[(s_r, s_c)], f"residue ({s_r},{s_c})")
            for name in "abd":
                grids[name][-1].append(slot.take_vec(name))
            slot.finish()
    return C3Params(
        n=n,
        q=q,
        t_r=t_r,
        t_c=t_c,
        l=l,
        anchor=anchor,
        a=tuple(tuple(row) for row in grids["a"]),
        b=tuple(tuple(row) for row in grids["b"]),
        d=tuple(tuple(row) for row in grids["d"]),
    )


@dataclass(frozen=True)
class Construction:
    """One code family: its parameter type and the functions that serve it.

    decode takes (y, params, path) and accepts every name in paths; burst
    marks families whose channel deletes consecutive windows.
    """

    name: str
    params: type
    check: Callable[[Array2D, AnyParams], bool]
    decode: Callable[..., DecodeOutcome]
    paths: tuple[str, ...]
    burst: bool
    to_lines: Callable[[AnyParams], list[str]]
    parse: Callable[[dict[str, str]], AnyParams]


CONSTRUCTIONS: dict[str, Construction] = {
    c.name: c
    for c in (
        Construction("c1", C1Params, c1_check, c1_decode, ("auto", "fast", "scan"), False,
                     _c1_lines, _parse_c1),
        Construction("c2", C2Params, c2_check, c2_decode, ("auto", "fast", "scan"), False,
                     _c2_lines, _parse_c2),
        Construction("c3", C3Params, c3_check, c3_decode, ("auto",), True,
                     _c3_lines, _parse_c3),
    )
}
_BY_TYPE = {c.params: c for c in CONSTRUCTIONS.values()}


def construction_of(p: AnyParams) -> Construction:
    """The table record for a parameter object, looked up by its exact type."""
    try:
        return _BY_TYPE[type(p)]
    except KeyError:
        raise InvalidParameterError(f"no construction takes {type(p).__name__}") from None


def params_to_text(p: AnyParams) -> str:
    return "\n".join(construction_of(p).to_lines(p)) + "\n"


def params_from_text(text: str) -> AnyParams:
    fields = _split_lines(text)
    kind = fields.get("construction")
    if kind not in CONSTRUCTIONS:
        raise InvalidParameterError(f"unknown construction {kind!r}")
    return CONSTRUCTIONS[kind].parse(fields)


def codebook_to_text(arrays: Sequence[Array2D], n: int | None = None, q: int | None = None) -> str:
    arrays = tuple(arrays)
    if arrays:
        n = arrays[0].rows if n is None else n
        q = arrays[0].q if q is None else q
    elif n is None or q is None:
        raise InvalidParameterError("an empty codebook needs explicit n and q")
    for k, x in enumerate(arrays):
        if x.rows != n or x.cols != n or x.q != q:
            raise InvalidParameterError(
                f"array {k} is {x.rows}x{x.cols} over q={x.q}, want {n}x{n} over q={q}"
            )
    blocks = [f"{n} {q} {len(arrays)}"]
    blocks += [array_to_text(x).rstrip("\n") for x in arrays]
    return "\n\n".join(blocks) + "\n"


def codebook_from_text(text: str) -> tuple[Array2D, ...]:
    blocks = [b for b in re.split(r"\n\s*\n", text.strip()) if b.strip()]
    if not blocks:
        raise InvalidParameterError("empty codebook text")
    header = blocks[0].split()
    if len(header) != 3:
        raise InvalidParameterError(f"bad codebook header {blocks[0]!r}: want 'n q count'")
    try:
        n, q, count = (int(v) for v in header)
    except ValueError as exc:
        raise InvalidParameterError(f"non-integer codebook header {blocks[0]!r}") from exc
    if len(blocks) - 1 != count:
        raise InvalidParameterError(f"header promises {count} arrays, found {len(blocks) - 1}")
    arrays = tuple(array_from_text(b) for b in blocks[1:])
    for k, x in enumerate(arrays):
        if x.rows != n or x.cols != n or x.q != q:
            raise InvalidParameterError(
                f"array {k} is {x.rows}x{x.cols} over q={x.q}, header says {n} over q={q}"
            )
    return arrays
