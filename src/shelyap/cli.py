"""Command line interface.

Subcommands:
    gamma     three-route exponent report for one instance (JSON)
    clusters  sticky-dynamics paths, merge events and partition (CSV or JSON)
    verify    seeded randomized cross-check suites
    moments   contour-quadrature moment and rate at scale T
    sweep     one-parameter grid of exponents (CSV or JSON)

Exit codes: 0 success, 1 invalid input (machine-readable error object on
stderr), 2 tolerance or suite failure. Floats are printed with 17 significant
digits so every value round-trips exactly. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

# perfbench/test_harness.py checks that the tracer wraps simulate_inertia here too
from .clusters import (MergeEvent, _Paths, _simulate, event_tolerance, initial_speeds,  # noqa: F401
                       separation_margins, simulate_inertia)
from .closedform import gamma3, gamma_report, verify_recursion_identity
from .errors import (
    InvalidContour,
    NonFiniteResult,
    NonPositiveMoment,
    NonPositiveMultiplicity,
    NonPositiveTime,
    ShelyapError,
    UnsortedLocations,
)
from .instance import MomentInstance, validate_instance
from .quadrature import (
    DEFAULT_SIGMAS,
    contour_moment_complex,
    default_contour_config,
    heat_kernel,
    upper_bound_value,
)
from .sampling import random_instance, sample_matching
from .solvers import (
    check_minimizer_structure,
    oracle_gamma1,
    oracle_gamma2,
    solve_gamma1,
    solve_gamma2,
)

TRIPLE_TOL = 1e-8
ORACLE_OBJ_TOL = 1e-10
ORACLE_COORD_TOL = 1e-8
RECURSION_TOL = 1e-9
MOMENTUM_TOL = 1e-12
ANCHOR_TOL = 1e-12
COM_TOL = 1e-10
QUAD_REL_TOL = 1e-8


def format_float(v: float) -> str:
    """%.17g of one finite value; NaN and inf raise NonFiniteResult.

    Scalars print here; whole arrays print through the bulk kernel below,
    after _check_finite has passed them.
    """
    if not math.isfinite(v):
        raise NonFiniteResult(f"computed value {v} is not finite")
    return f"{v:.17g}"


def _check_finite(values: np.ndarray) -> None:
    """Raise NonFiniteResult naming the first non-finite entry, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values.ravel()[finite.argmin()]))


# --- bulk %.17g ------------------------------------------------------------------
#
# Float arrays print through a whole-array kernel that gives "%.17g" % v byte
# for byte. Each value becomes six NUL-padded uint64 words of ASCII text:
#
#   word 0     sign, "0.000" (the leading zeros of fixed notation below 1),
#              the first digit and a point slot
#   words 1-4  the other 16 digits, each followed by a point slot
#   word 5     the exponent "e+XX" of scientific notation, else NUL; at most
#              five bytes ("e-324"), so the last three are free and hold the
#              separator that follows the value (", " in a JSON row, "," or
#              "\n" in CSV), which thus costs no word
#
# and a keep mask, chosen by the notation and the number of digits left once
# trailing zeros go, NULs every byte that "%.17g" does not print. Rows of
# such words sit beside any longer separator words, and translate() drops
# the NULs, a chunk of rows at a time. A JSON document reaches the writer as
# its list of pieces (_pieces), each array's chunk texts among them unjoined,
# all built and checked before the first byte is written.

_CHUNK = 8192  # values per kernel pass; bounds the kernel's scratch memory
_K0 = -294  # 10^k is tabled for k in [_K0, 342], the range of 16 - X
_E0 = -325  # exponent words are tabled for X in [_E0, 309]


def _pow10_table() -> tuple[np.ndarray, ...]:
    """10^k = (H + L) 2^B, H an integer in [2^52, 2^53) and 0 <= L < 1 rounded.

    Also H's Veltkamp split into two halves of at most 26 bits, so that the
    four partial products of Dekker's exact product fit a double.
    """
    H, L, B, tens = [], [], [], [1]
    while len(tens) < 343:
        tens.append(tens[-1] * 10)
    for k in range(_K0, 343):
        p = tens[abs(k)]
        b = p.bit_length() - 53 if k >= 0 else -(p.bit_length() + 52)
        # q = floor(10^k 2^(64 - b)): H, then 64 bits below H's unit
        if k < 0:
            q = (1 << 64 - b) // p
        else:
            q = p << 64 - b if b <= 64 else p >> b - 64
        H.append(float(q >> 64))
        L.append(math.ldexp(float(q & (2**64 - 1)), -64))
        B.append(b)
    h = np.array(H)
    c = h * 134217729.0
    hh = c - (c - h)
    return h, hh, h - hh, np.array(L), np.array(B, np.int32)


def _words(texts: Sequence[bytes], width: int = 1) -> np.ndarray:
    """Each text NUL-padded into width uint64 words."""
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


def _layout_tables() -> tuple[np.ndarray, ...]:
    """Digit words, last-nonzero positions, keep masks and exponent words."""
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)  # row j: digit j of 0..9999
    # "d.d.d.d." for every 4-digit chunk; the mask keeps the points it needs
    octs = np.full((10_000, 8), 46, np.uint8)
    octs[:, ::2] = digits.T + 48
    # row j: 4j + the position of a chunk's last nonzero digit, 0 if none
    pos = np.max((digits > 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
    last = (pos + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (pos > 0)
    # form 0 and 22 are scientific notation; form f in 1..21 is fixed
    # notation at exponent f - 5. nd digits are left after trailing zeros go.
    f, nd, i = np.ix_(range(23), range(18), range(17))
    x = f - 5
    sci = (f == 0) | (f == 22)
    below_one = (x < 0) & ~sci
    shown = np.where(sci | below_one, nd, np.maximum(nd, x + 1))
    point = np.where(sci, 0, x)  # the digit the point follows
    keep = np.zeros((23, 18, 48), np.uint8)
    keep[..., 0] = keep[..., 40:] = 1
    keep[..., 1:6] = below_one & (np.arange(1, 6) <= 1 - x)
    keep[..., 6:40:2] = i < shown
    keep[..., 7:40:2] = (i == point) & (nd > point + 1)
    masks = (keep * 255).view(np.uint64).reshape(-1, 6).T.copy()
    exps = _words([b"" if -4 <= x <= 16 else b"e%+03d" % x for x in range(_E0, 310)])
    return octs.view(np.uint64).ravel(), last, masks, exps.ravel()


_P10, _P10_HI, _P10_LO, _P10_L, _P10_B = _pow10_table()
_OCTS, _LAST, _MASKS, _EXPS = _layout_tables()
_HEAD = int(_words([b"\x000.0000."])[0, 0])  # word 0 with a zero first digit


def _scaled(m, mh, ml, e2, X):
    """q = m 2^e2 10^(16 - X) as a double-double (hi, lo), by Dekker's product.

    m and the table's H are split into halves (mh + ml and hh + hl), so
    every partial product is exact; only the L terms round, by a few parts
    in 2^104 of q.
    """
    k = (16 - _K0) - X
    h = _P10.take(k)
    p = m * h
    lo = mh * _P10_HI.take(k) - p
    lo += mh * _P10_LO.take(k)
    lo += ml * _P10_HI.take(k)
    lo += ml * _P10_LO.take(k)
    lo += m * _P10_L.take(k)
    hi = p + lo
    lo -= hi - p
    s = _P10_B.take(k) + e2
    return np.ldexp(hi, s, out=hi), np.ldexp(lo, s, out=lo)


def _float_words(v: np.ndarray, out: np.ndarray) -> None:
    """Write "%.17g" % x for each finite x in v into out, six words each.

    |x| = m 2^e2 with m an integer below 2^53. With X = floor(log10 |x|),
    q = |x| 10^(16 - X) lies in [10^16, 10^17): X is moved by one where
    log10 rounding put q outside. q rounded to nearest is the 17 digits, and
    a carry to 10^17 bumps X. q's error is below 2^-45, so a value whose
    fraction of q is within 2^-30 of 1/2 (every exact decimal tie, which
    %.17g rounds half-even) is printed by "%.17g" itself.
    """
    a = np.abs(v)
    zero = a == 0.0
    a[zero] = 1.0
    m, e2 = np.frexp(a)
    m = np.ldexp(m, 53, out=m)
    e2 -= 53
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    X = np.floor(np.log10(a, out=a), out=a).astype(np.int32)
    hi, lo = _scaled(m, mh, ml, e2, X)
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.int32)
    step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    fix = np.flatnonzero(step)
    if len(fix):
        X[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(m[fix], mh[fix], ml[fix], e2[fix], X[fix])
    whole = np.floor(lo)
    lo -= whole
    r = hi.astype(np.int64) + whole.astype(np.int64) + (lo > 0.5)
    carry = r == 10**17
    r[carry] = 10**16
    X += carry
    r[zero] = 0
    X[zero] = 0
    # the first digit, then four chunks of four digits
    lead = r // 10**16
    rest = r - lead * 10**16
    chunks = []
    for unit in (10**12, 10**8, 10**4):
        chunks.append(rest // unit)
        rest -= chunks[-1] * unit
    chunks.append(rest)
    nd = np.maximum.reduce([last.take(c) for last, c in zip(_LAST, chunks)]) + 1
    form = (np.clip(X, -5, 17) + 5) * 18 + nd
    head = (lead.view(np.uint64) << 48) + _HEAD + (v.view(np.uint64) >> 63) * 45
    np.bitwise_and(head, _MASKS[0].take(form), out=out[:, 0])
    for j, c in enumerate(chunks, 1):
        np.bitwise_and(_OCTS.take(c), _MASKS[j].take(form), out=out[:, j])
    out[:, 5] = _EXPS.take(X - _E0)
    for i in np.flatnonzero(np.abs(lo - 0.5) < 2.0**-30):
        out[i] = _printf_words(v[i])


def _printf_words(x: float) -> np.ndarray:
    """"%.17g" % x itself, as six words: the kernel's path for decimal ties."""
    return np.frombuffer((b"%.17g" % x).ljust(48, b"\0"), np.uint64)


def _tail_word(sep: bytes) -> np.uint64:
    """A word with sep (at most 3 bytes) in its last bytes. An exponent word
    uses at most five ("e-324"), so ORed into one, sep follows the value."""
    return np.uint64(int.from_bytes(sep, "little") << 64 - 8 * len(sep))


def _text(n: int, columns) -> Iterator[str]:
    """n rows of text, at most _CHUNK at a time; columns(a, b) gives rows a..b.

    A column is a float array, printed %.17g (callers check it is finite), a
    (rows, width) uint64 array of NUL-padded text words, or a bytes separator
    of at most 3 bytes repeated on every row. A separator follows a float
    column and takes no word of its own: it sits in the free last bytes of
    each value's exponent word.
    """
    buf = None
    for a in range(0, n, _CHUNK):
        b = min(n, a + _CHUNK)
        cols, tails = [], []
        for c in columns(a, b):
            if isinstance(c, bytes):
                tails[-1] = _tail_word(c)
                continue
            cols.append(c)
            tails.append(None)
        widths = [6 if c.dtype.kind == "f" else c.shape[1] for c in cols]
        if buf is None:
            buf = np.empty((min(n, _CHUNK), sum(widths)), np.uint64)
        rows = buf[: b - a]
        j = 0
        for c, w, tail in zip(cols, widths, tails):
            if c.dtype.kind == "f":
                _float_words(np.asarray(c, np.float64), rows[:, j : j + w])
                if tail is not None:
                    rows[:, j + 5] |= tail
            else:
                rows[:, j : j + w] = c
            j += w
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


def _row_pieces(values: np.ndarray) -> list[str]:
    """The chunk texts of a 1-D float array's entries, format_float each,
    joined by ", "; NonFiniteResult names the first non-finite one."""
    _check_finite(values)
    texts = list(_text(len(values), lambda a, b: (values[a:b], b", ")))
    if texts:
        texts[-1] = texts[-1][:-2]
    return texts


def _pieces(obj, indent: int = 0) -> Iterator[str]:
    """The text of dumps_json(obj) at the given indent, piece by piece: a
    float array's pieces are its chunk texts, so no piece holds a copy of
    another."""
    if isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, np.ndarray):
        yield "["
        yield from _row_pieces(obj)
        yield "]"
    elif isinstance(obj, dict) and obj or isinstance(obj, list) and obj and isinstance(obj[0], dict):
        keyed = isinstance(obj, dict)
        opening, closing = "{}" if keyed else "[]"
        sp = "  " * indent
        for key, v in obj.items() if keyed else enumerate(obj):
            head = f"{opening}\n{sp}  {json.dumps(key)}: " if keyed else f"{opening}\n{sp}  "
            value = _pieces(v, indent + 1)
            yield head + next(value)  # a short first piece joins its key
            yield from value
            opening = ","
        yield f"\n{sp}{closing}"
    elif isinstance(obj, tuple) and obj and isinstance(obj[0], MergeEvent):
        yield _format_events(obj, indent)
    elif isinstance(obj, (list, tuple)) and _has_float(obj):
        yield f"[{', '.join([''.join(_pieces(v)) for v in obj])}]"
    else:
        yield json.dumps(obj)


def dumps_json(obj) -> str:
    """Deterministic JSON with %.17g floats (json module can't control that).

    One layout rule: a dict, or a list whose items are dicts, puts each entry
    on its own line at the next indent, and every other value prints on one
    line. A merge log prints as the list of its events' {time, merged,
    position} dicts. A float prints through format_float, a 1-D float array
    through the bulk kernel, any other list holding a float as [a, b], and
    the rest by one json.dumps call. The commands hand _emit the pieces
    themselves (_pieces), not their join.
    """
    return "".join(_pieces(obj))


def _has_float(items: list | tuple) -> bool:
    """Whether a float sits in a list or tuple, at any depth."""
    while items:
        if any(issubclass(k, float) for k in set(map(type, items))):
            return True
        items = [w for v in items if isinstance(v, (list, tuple)) for w in v]
    return False


def _format_events(events: Sequence[MergeEvent], indent: int) -> str:
    """A merge log as dumps_json lays out the list of its {time, merged, position}
    dicts, byte for byte, in one pass over the events.

    Times and positions print through the bulk kernel, in document order so
    that the first non-finite value is the one named; merged prints its ints
    with %d.
    """
    sp = "  " * (indent + 1)
    values = np.array([(e.time, e.position) for e in events]).ravel()
    floats = "".join(_row_pieces(values)).split(", ")
    merged = ["[" + ", ".join(["[%d, %d]" % iv for iv in e.merged]) + "]" for e in events]
    body = f",\n{sp}".join([
        f'{{\n{sp}  "time": {s},\n{sp}  "merged": {ivs},\n{sp}  "position": {z}\n{sp}}}'
        for s, ivs, z in zip(floats[::2], merged, floats[1::2])])
    return f"[\n{sp}{body}\n{'  ' * indent}]"


def _emit(lines: Iterable[str], output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.writelines(lines)
        return
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe and wants no more; that is not an error.
        # fd 1 goes to devnull so the exit flush of what is buffered succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fail(name: str, message: str) -> int:
    """Write the error object {"error": name, "message": message} to stderr."""
    sys.stderr.write(f"{dumps_json({'error': name, 'message': message})}\n")
    return 1


def _parse_float(text: str, error: type[ShelyapError]) -> float:
    try:
        return float(text)
    except ValueError:
        raise error(f"{text!r} is not a number") from None


def _parse_floats(text: str, error: type[ShelyapError]) -> list[float]:
    """Comma-separated numbers; an empty field is an error, not skipped."""
    return [_parse_float(s, error) for s in text.split(",")]


_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # the strings int() reads


def _parse_multiplicity(text: str) -> int | float:
    """An integer literal exactly, as --input's JSON reads one, else a float.

    An integer literal past Python's digit limit raises int()'s ValueError,
    as json.load does, rather than reading as the float inf.
    """
    try:
        return int(text)
    except ValueError:
        if _INT_LITERAL.fullmatch(text):
            raise
        return _parse_float(text, NonPositiveMultiplicity)


def _load_instance(args) -> MomentInstance:
    inline = args.t is not None or args.x is not None or args.m is not None
    if args.input and inline:
        raise ShelyapError("give either --input or inline --t/--x/--m, not both")
    if args.input:
        with open(args.input) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ShelyapError("instance file must hold a JSON object")
        for key in ("t", "x", "m"):
            if key not in doc:
                raise ShelyapError(f"instance file missing key {key!r}")
        if not isinstance(doc["x"], list) or not isinstance(doc["m"], list):
            raise ShelyapError("instance file keys 'x' and 'm' must be lists")
        return validate_instance(doc["t"], doc["x"], doc["m"])
    if args.t is None or args.x is None or args.m is None:
        raise ShelyapError("need --input FILE or all of --t/--x/--m")
    return validate_instance(
        _parse_float(args.t, NonPositiveTime),
        _parse_floats(args.x, UnsortedLocations),
        [_parse_multiplicity(s) for s in args.m.split(",")],
    )


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="instance JSON file with keys t, x, m")
    p.add_argument("--t", help="horizon t > 0")
    p.add_argument("--x", help="comma-separated strictly increasing locations")
    p.add_argument("--m", help="comma-separated integer multiplicities >= 1")
    p.add_argument("--output", help="write result here instead of stdout")


# --- gamma ------------------------------------------------------------------

def cmd_gamma(args) -> int:
    # NaN fails this too; exit 2 is kept for routes that really disagree
    if not args.tolerance >= 0.0:
        raise ShelyapError(f"tolerance {args.tolerance} must be >= 0")
    inst = _load_instance(args)
    rep = gamma_report(inst)
    doc = {
        "gamma1": rep.gamma1,
        "gamma2": rep.gamma2,
        "gamma3": rep.gamma3,
        "max_dev": rep.max_pairwise_dev,
        "partition": rep.partition,
        "a": rep.minimizer_a,
        "b": rep.minimizer_b,
        "structure_ok": rep.structure_ok,
    }
    _emit([*_pieces(doc), "\n"], args.output)
    ok = (
        rep.max_pairwise_dev <= args.tolerance * (1.0 + abs(rep.gamma3))
        and rep.structure_ok
    )
    return 0 if ok else 2


# --- clusters ----------------------------------------------------------------

def _float_word_rows(values: np.ndarray, sep: bytes) -> np.ndarray:
    """The six text words of each (finite) value, by the bulk kernel, with
    sep in the free end of its exponent word."""
    out = np.empty((len(values), 6), np.uint64)
    for a in range(0, len(values), _CHUNK):
        _float_words(values[a : a + _CHUNK], out[a : a + _CHUNK])
    out[:, 5] |= _tail_word(sep)
    return out


def _check_paths(paths: _Paths, interleave: bool) -> None:
    """Raise NonFiniteResult naming the first non-finite path value in print
    order, before any is printed: every row of zeta, then every row of xi,
    or with interleave row by row, each column's zeta then its xi. A chunk is
    clean when its xi is finite, for a non-finite zeta makes its xi so."""
    first_xi = None
    for _, _, nodes, where, zeta, xi in paths.chunks():
        if np.isfinite(xi).all():
            continue
        cells = paths.cells(nodes, where)
        if interleave:
            _check_finite(np.column_stack((zeta[cells], xi[cells])))
        _check_finite(zeta[cells])
        if first_xi is None:
            first_xi = xi[cells]
    if first_xi is not None:
        _check_finite(first_xi)


# a span value's separator in a JSON row: inside its span, after a root's
# span, after another's; "|" marks where the spans' text is split
_JSON_TAILS = _words([b", ", b"], [|", b", |"])


def _json_rows(paths: _Paths, family: int) -> Iterator[str]:
    """The JSON list of zeta's rows (family 0) or xi's (1), a chunk of rows at a time.

    Each span prints once in a chunk, by the bulk kernel, ending in its
    separator in a row; a row's text is then its spans' texts.
    """
    yield "[["
    for r0, r1, nodes, where, *families in paths.chunks(xi=family == 1):
        values = families[family]
        tail = np.zeros(len(values), np.intp)
        tail[np.cumsum(paths.size[nodes]) - 1] = np.where(paths.parent[nodes] < 0, 1, 2)
        text = "".join(_text(len(values), lambda a, b: (
            values[a:b], _JSON_TAILS.take(tail[a:b], axis=0))))
        texts = np.array(text.split("|")[:-1], dtype=object)
        text = "".join(texts[where].tolist())
        yield text if r1 < paths.n else text[:-4] + "]]"


def _csv_lines(paths: _Paths) -> Iterator[str]:
    """The CSV lines index,s,zeta,xi, a chunk of rows at a time.

    Each span value prints once in a chunk, by the bulk kernel, as words,
    and each line gathers the words of its index, s and value; a value's
    exponent word keeps its last byte for the separator that follows it.
    Joining span texts per row, as the JSON rows do, was faster, but its
    many mid-sized strings raised the peak RSS of a run over instances of
    n = 100..400 by up to 14 MB, through the heap's layout.
    """
    n, k = paths.n, len(paths.grid)
    index = _words([b"%d," % i for i in range(1, n + 1)], len(str(n)) // 8 + 1)
    s = _float_word_rows(paths.grid, b",")
    for r0, r1, nodes, where, zeta, xi in paths.chunks():
        values = np.hstack((_float_word_rows(zeta, b","), _float_word_rows(xi, b"\n")))
        cells = paths.cells(nodes, where)

        def columns(a, b):
            i, j = np.divmod(np.arange(a, b), k)
            return index.take(i + r0, axis=0), s.take(j, axis=0), values.take(cells[a:b], axis=0)

        yield from _text((r1 - r0) * k, columns)


def cmd_clusters(args) -> int:
    inst = _load_instance(args)
    run = _simulate(inst)
    paths = _Paths(run, inst.t)
    if args.format == "csv":
        _check_finite(paths.grid)
        # nothing is written before every line has passed; %.17g never needs CSV quoting
        _check_paths(paths, interleave=True)
        _emit(itertools.chain(["index,s,zeta,xi\n"], _csv_lines(paths)), args.output)
        return 0
    head = list(_pieces({
        "partition": run.partition,
        "q_hat": len(run.partition),
        "cluster_masses": tuple(float(sum(inst.m[b[0] - 1 : b[-1]])) for b in run.partition),
        "terminal_positions": paths.terminal,
        "drifts": paths.drift,
        "events": run.events,
        "breakpoints": paths.grid,
    }))
    head.pop()  # the closing "\n}"; zeta and xi follow
    _check_paths(paths, interleave=False)
    _emit(itertools.chain(head, [',\n  "zeta": '], _json_rows(paths, 0),
                          [',\n  "xi": '], _json_rows(paths, 1), ["\n}\n"]), args.output)
    return 0


# --- verify -------------------------------------------------------------------

# A verdict passes only on a comparison that holds (`dev <= tol`, `gap > 0`),
# and no comparison with NaN holds.

def _check_triple(inst: MomentInstance) -> bool:
    # max - min is gamma_report's max pairwise deviation, bit for bit, and
    # the array's max and min are NaN if any route is
    g3 = gamma3(inst, _simulate(inst))
    vals = np.array((solve_gamma1(inst).objective, solve_gamma2(inst).objective, g3))
    return float(vals.max() - vals.min()) <= TRIPLE_TOL * (1.0 + abs(g3))


def _check_oracle(inst: MomentInstance) -> bool:
    return all(
        abs(fast.objective - slow.objective) <= ORACLE_OBJ_TOL
        and bool((np.abs(fast.values - slow.values) <= ORACLE_COORD_TOL).all())
        for fast, slow in (
            (solve_gamma1(inst), oracle_gamma1(inst)),
            (solve_gamma2(inst), oracle_gamma2(inst)),
        )
    )


def _check_structure(inst: MomentInstance) -> bool | None:
    """None means boundary-flagged, excluded from the count."""
    sol = solve_gamma1(inst)
    rep = check_minimizer_structure(sol, inst, _simulate(inst))
    if rep.boundary:
        return None
    return rep.ok


def _check_recursion(inst: MomentInstance) -> bool:
    chk = verify_recursion_identity(inst)
    return chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))


def _check_physics(inst: MomentInstance) -> bool:
    run = _simulate(inst)
    paths = _Paths(run, inst.t)
    mass, birth, position, speed = paths.mass, paths.birth, paths.position, paths.speed
    parent, root, n, t = paths.parent, paths.root, inst.n, inst.t
    kid = (parent >= 0).nonzero()[0]
    up = parent[kid]
    # each merge group carries its members' momentum and is born where they
    # meet, up to gaps that close within event_tolerance(t)
    p = mass * speed
    inflow = np.bincount(up, weights=p[kid], minlength=len(mass))[n:]
    scale = np.bincount(up, weights=np.abs(p[kid]), minlength=len(mass))[n:]
    if not (np.abs(p[n:] - inflow) <= MOMENTUM_TOL * (1.0 + scale)).all():
        return False
    meet = position[kid] + speed[kid] * (birth[up] - birth[kid])
    spread = speed.max() - speed.min()
    window = spread * event_tolerance(t) + ANCHOR_TOL * (1.0 + np.abs(position[up]))
    if not (np.abs(meet - position[up]) <= window).all():
        return False
    # each block moves at its locations' mean initial speed; blocks end apart
    m = np.asarray(inst.m, dtype=float)
    start = paths.lo[root] - 1
    psi = np.add.reduceat(m * initial_speeds(m), start) / np.add.reduceat(m, start)
    if not (np.abs(speed[root] - psi) <= COM_TOL * (1.0 + np.abs(psi))).all():
        return False
    terminal = paths.terminal
    if not (terminal[1:] - terminal[:-1] > 0.0).all():
        return False
    return len(root) == 1 or bool((separation_margins(inst, run.partition) > 0.0).all())


def _quadrature_checks(rng: np.random.Generator, count: int) -> list[bool]:
    if count == 0:
        return []
    out: list[bool] = []
    for _ in range(count):
        T = float(rng.uniform(0.5, 10.0))
        t = float(rng.uniform(0.2, 3.0))
        x0 = float(rng.uniform(-1.5, 1.5))
        inst = validate_instance(t, [x0], [1])
        cfg = default_contour_config(T, inst, points=200)
        mom = contour_moment_complex(T, inst, cfg).real
        ref = heat_kernel(T * t, T * x0)
        ok = abs(mom - ref) <= QUAD_REL_TOL * ref
        # default offset [-x/t] makes the bound tight, so allow quadrature slack
        ub = upper_bound_value(T, inst, cfg.offsets)
        out.append(ok and mom <= ub * (1.0 + QUAD_REL_TOL))
    # shift invariance and strict domination on a two-coordinate instance
    inst = validate_instance(1.0, [0.0], [2])
    base_cfg = default_contour_config(4.0, inst)
    base = contour_moment_complex(4.0, inst, base_cfg).real
    ok_shift = True
    for delta in (-0.5, 0.25, 0.5):
        cfg = dataclasses.replace(
            base_cfg, offsets=tuple(a + delta for a in base_cfg.offsets)
        )
        moved = contour_moment_complex(4.0, inst, cfg).real
        if not abs(moved - base) <= QUAD_REL_TOL * abs(base):
            ok_shift = False
    out.append(ok_shift)
    cfg = dataclasses.replace(
        base_cfg, offsets=tuple(a + 0.4 for a in base_cfg.offsets)
    )
    ub = upper_bound_value(4.0, inst, cfg.offsets)
    out.append(contour_moment_complex(4.0, inst, cfg).real <= ub)
    return out


def _on_random(check):
    """A suite that applies check to count fresh random instances."""
    return lambda rng, count: [check(random_instance(rng)) for _ in range(count)]


# name -> (rng, count) -> results, None for a boundary skip; a suite draws
# from default_rng([seed, its position here])
SUITES = {
    "triple": _on_random(_check_triple),
    "oracle": lambda rng, count: [
        _check_oracle(inst)
        for inst in sample_matching(rng, lambda i: i.nu <= 10, count)
    ],
    "structure": _on_random(_check_structure),
    "recursion": _on_random(_check_recursion),
    "physics": _on_random(_check_physics),
    "quadrature": _quadrature_checks,
}


def cmd_verify(args) -> int:
    if args.count < 0:
        raise ShelyapError(f"count {args.count} must be >= 0")
    if args.seed < 0:
        raise ShelyapError(f"seed {args.seed} must be >= 0")
    names = list(SUITES) if args.suites is None else [
        s.strip() for s in args.suites.split(",") if s.strip()
    ]
    if not names:
        raise ShelyapError(f"no suite named; pick from {', '.join(SUITES)}")
    for i, s in enumerate(names):
        if s not in SUITES:
            raise ShelyapError(f"unknown suite {s!r}; pick from {', '.join(SUITES)}")
        if s in names[:i]:
            raise ShelyapError(f"suite {s!r} is named more than once")
    lines = []
    all_ok = True
    for name in names:
        rng = np.random.default_rng([args.seed, list(SUITES).index(name)])
        raw = SUITES[name](rng, args.count)
        results = [r for r in raw if r is not None]
        passed = sum(results)
        skipped = len(raw) - len(results)
        note = f" ({skipped} boundary skipped)" if skipped else ""
        lines.append(f"{name}: {passed}/{len(results)} pass{note}")
        all_ok = all_ok and passed == len(results)
    lines.append("VERIFY PASS" if all_ok else "VERIFY FAIL")
    _emit(["\n".join(lines), "\n"], None)
    return 0 if all_ok else 2


# --- moments -------------------------------------------------------------------

def cmd_moments(args) -> int:
    inst = _load_instance(args)
    T = float(args.T)
    offsets = None if args.offsets is None else _parse_floats(args.offsets, InvalidContour)
    cfg = default_contour_config(T, inst, args.points, args.truncation_sigmas, args.rule, offsets)
    val = contour_moment_complex(T, inst, cfg)
    if not math.isfinite(val.real):
        raise NonFiniteResult(f"moment {val.real} is not finite")
    if not val.real > 0.0:
        raise NonPositiveMoment(f"moment {val.real} has no log-rate")
    rate = math.log(val.real) / T
    gamma = solve_gamma1(inst).objective
    doc = {
        "moment": val.real,
        "rate": rate,
        "gamma": gamma,
        "gap": rate - gamma,
        "imag_residual": abs(val.imag) / max(abs(val.real), 1e-300),
        "offsets": cfg.offsets,
        "points": cfg.points,
        "truncation": cfg.truncation,
    }
    _emit([*_pieces(doc), "\n"], args.output)
    return 0


# --- sweep --------------------------------------------------------------------

def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ShelyapError(f"grid {text!r} must be start:stop:count")
    try:
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ShelyapError(f"malformed grid {text!r}: {e}") from None
    if num < 0:
        raise ShelyapError(f"grid count {num} must be >= 0")
    return np.linspace(start, stop, num)


def _sweep_row(inst: MomentInstance, value: float) -> tuple:
    run = _simulate(inst)
    s0 = run.birth[inst.n] if len(run.birth) > inst.n else None
    return value, gamma3(inst, run), len(run.partition), s0


def cmd_sweep(args) -> int:
    base = _load_instance(args)
    grid = _parse_grid(args.grid)
    param = args.param
    if param != "t":
        if not re.fullmatch(r"x[0-9]+", param):
            raise ShelyapError(f"param {param!r} must be 't' or 'x<i>'")
        loc = int(param[1:])
        if not 1 <= loc <= base.n:
            raise ShelyapError(f"param {param!r} out of range for n={base.n}")

    def make(value: float) -> MomentInstance:
        if param == "t":
            return validate_instance(value, base.x, base.m)
        xs = list(base.x)
        xs[loc - 1] = value
        return validate_instance(base.t, xs, base.m)

    insts = [make(float(v)) for v in grid]
    rows = [_sweep_row(inst, float(v)) for inst, v in zip(insts, grid)]
    if args.format == "json":
        doc = [
            {"parameter": v, "gamma": g, "q_hat": q, "s0": s0}
            for v, g, q, s0 in rows
        ]
        _emit([*_pieces(doc), "\n"], args.output)
        return 0
    lines = ["parameter,gamma,q_hat,s0\n"]
    for v, g, q, s0 in rows:
        fields = [format_float(v), format_float(g), str(q),
                  "" if s0 is None else format_float(s0)]
        lines.append(",".join(fields) + "\n")
    _emit(lines, args.output)
    return 0


# --- wiring -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag starts with a digit, i or n, so a token like -1,0, -2:0.5:3,
        # -.4, -inf or -nan,0 is a value; argparse's default only accepts
        # plain negative numbers.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise SystemExit(_fail("UsageError", message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared after."""
    p = _Parser(prog="shelyap", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="three-route exponent report")
    _add_instance_args(g)
    g.add_argument("--tolerance", type=float, default=TRIPLE_TOL,
                   help="relative agreement tolerance (default 1e-8)")
    g.set_defaults(func=cmd_gamma)

    c = sub.add_parser("clusters", help="sticky-dynamics paths and partition")
    _add_instance_args(c)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_clusters)

    v = sub.add_parser("verify", help="seeded randomized cross-check suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=100,
                   help="instances (or checks) per suite")
    v.add_argument("--suites", help=f"comma list from: {', '.join(SUITES)}")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("moments", help="contour moment and rate at scale T")
    _add_instance_args(q)
    q.add_argument("--T", required=True, type=float, help="moment scale T > 0")
    q.add_argument("--points", type=int, help="grid points per axis")
    q.add_argument("--truncation-sigmas", type=float, default=DEFAULT_SIGMAS,
                   help="half-width Y = sigmas/sqrt(T t)")
    q.add_argument("--offsets", help="comma-separated contour offsets")
    q.add_argument("--rule", choices=("gauss", "trapezoid"), default="gauss")
    q.set_defaults(func=cmd_moments)

    s = sub.add_parser("sweep", help="exponent along a parameter grid")
    _add_instance_args(s)
    s.add_argument("--param", required=True, help="'t' or 'x<i>' (1-based)")
    s.add_argument("--grid", required=True, help="start:stop:count")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # degenerate input may overflow inside numpy; format_float turns any
        # NaN or inf that reaches the output into NonFiniteResult, so stderr
        # carries only the error object
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ShelyapError, OSError, ValueError, OverflowError) as e:
        return _fail(type(e).__name__, str(e))
    except MemoryError as e:
        # a grid too large to allocate; numpy raises a private subclass, so
        # every such failure is reported under the one name
        return _fail("MemoryError", str(e) or "cannot allocate the requested size")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
