"""The construction table, and plain-text serialization for class parameters
and codebook files.

CONSTRUCTIONS maps each ``construction=`` name to the record of functions that
serve the family; callers dispatch through it instead of testing types.

Parameter records are flat ``key=value`` lines with comma lists for vectors;
a ``construction=`` line selects the layout. The burst-code record embeds its
anchor as an ``anchor.``-prefixed c2 record and ``(s_r,s_c).a``, ``.b`` and
``.d`` keys per residue subarray. Each record is read as one, which names any
missing or unknown key. Codebook files start with a ``n q count`` header
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
    """A key=value record that tracks consumption so leftovers are rejected.
    Keys are read under prefix; nested(prefix) views a sub-record whose keys
    count as used here."""

    def __init__(self, fields: dict[str, str], what: str, prefix: str = ""):
        self.fields = fields
        self.what = what
        self.prefix = prefix
        self.used: set[str] = set()

    def nested(self, prefix: str) -> _Record:
        sub = _Record(self.fields, self.what, self.prefix + prefix)
        sub.used = self.used
        return sub

    def take(self, key: str) -> str:
        key = self.prefix + key
        if key not in self.fields:
            raise InvalidParameterError(f"{self.what} record is missing {key!r}")
        self.used.add(key)
        return self.fields[key]

    def has(self, key: str) -> bool:
        return self.prefix + key in self.fields

    def _take_as(self, key: str, convert: Callable[[str], object], kind: str):
        raw = self.take(key)
        try:
            return convert(raw)
        except ValueError as exc:
            raise InvalidParameterError(
                f"{self.what}: {self.prefix}{key}={raw!r} is not {kind}"
            ) from exc

    def take_int(self, key: str) -> int:
        return self._take_as(key, int, "an integer")

    def take_vec(self, key: str) -> tuple[int, ...]:
        return self._take_as(key, lambda raw: tuple(map(int, raw.split(","))) if raw else (),
                             "a comma list")

    def take_bool(self, key: str) -> bool:
        return self._take_as(key, lambda raw: bool(("false", "true").index(raw)), "true/false")

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


def _parse_c1(rec: _Record) -> C1Params:
    return C1Params(
        n=rec.take_int("n"),
        q=rec.take_int("q"),
        a=rec.take_vec("a"),
        b=rec.take_vec("b"),
        c=rec.take_int("c"),
        d=rec.take_int("d"),
        relaxed=rec.take_bool("relaxed"),
    )


def _parse_c2(rec: _Record) -> C2Params:
    if rec.has("n"):
        rows = cols = rec.take_int("n")
    else:
        rows = rec.take_int("rows")
        cols = rec.take_int("cols")
    return C2Params(
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


def _parse_c3(rec: _Record) -> C3Params:
    n, q, t_r, t_c, l = (rec.take_int(key) for key in ("n", "q", "tr", "tc", "l"))
    # Checked before any slot key is read; the grid reads below stop at the
    # first slot key the record text lacks.
    check_burst_lengths(n, t_r, t_c)
    anchor = rec.nested("anchor.")
    if anchor.take("construction") != "c2":
        raise InvalidParameterError("anchor record must use construction=c2")

    def grid(name: str) -> tuple:
        return tuple(
            tuple(rec.take_vec(f"({s_r},{s_c}).{name}") for s_c in range(1, t_c + 1))
            for s_r in range(1, t_r + 1)
        )

    return C3Params(n=n, q=q, t_r=t_r, t_c=t_c, l=l, anchor=_parse_c2(anchor),
                    a=grid("a"), b=grid("b"), d=grid("d"))


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
    parse: Callable[[_Record], AnyParams]


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
    rec = _Record(fields, kind)
    rec.take("construction")
    p = CONSTRUCTIONS[kind].parse(rec)
    rec.finish()
    return p


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
