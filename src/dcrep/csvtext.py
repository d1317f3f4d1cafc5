"""CSV text of array columns, a block of rows at a time, with no Python
object per cell.

Every column of a block becomes a NUL-padded ``(rows, width)`` uint8 matrix
of its cells' text; the matrices and the ``,`` / ``\\n`` columns are stacked
side by side, and the non-NUL bytes, read row by row, are the block's CSV.

Float cells are spelled as ``format(x, ".17g")`` spells them, bit for bit,
by an array kernel:

* The decimal exponent E, with 10^E <= |x| < 10^(E+1), comes from ``log10``
  and is corrected by exact comparisons of |x| with the smallest double at or
  above each power of ten.
* The product y = |x| 10^(16-E) is formed in double-double arithmetic
  (Dekker, Numer. Math. 1971) from a (hi, lo) table of the powers of ten:
  Dekker's product |x| hi is exact, and y is off by less than 2^-47.  Since
  10^16 <= y < 10^17, rounding y gives the 17 significant digits D; D = 10^17
  carries into E.
* The text is one gather from the digits and a few constant characters,
  through a layout per (sign, E, number of digits left once trailing zeros
  go).  Each layout is built once, cached as a padded row of bytes, and a
  block's layout table is those rows of the codes it holds, joined.

A cell outside the domain where that is proven goes through ``format``
itself, once per distinct bit pattern: zero, nan, +-inf, |x| outside
[10^-270, 10^271) (where lo or Dekker's partial products could leave the
normal range), and a y whose fractional part lies within 1e-6 of 1/2, which
covers the exact ties that ``format`` rounds half to even (such as 2^-25).
The tables are built on first use, not at import.

Integer, bool and string columns, and those fallback bit patterns, are
spelled once per distinct cell: one ``np.unique(..., return_inverse=True)``
finds the distinct cells, Python spells only those, and one gather spreads
their text to the cells.  An object column (None beside str, say) is first
turned into str cell by cell.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_E_MIN, _E_MAX = -270, 270      # the kernel's exponents E: 10^-270 <= |x| < 10^271
_S_MIN, _S_MAX = _E_MIN - 1, 16 - _E_MIN    # the powers 10^s in the tables
_SPLIT = 134217729.0            # 2^27 + 1: Dekker's split of a double
_TIE = 1e-6                     # a y this close to k + 1/2 is left to format
_DIGITS = 17                    # significant digits
# A row of the kernel's source: the lead digit and 3 unused bytes, the 16
# other digits, then the constant characters of the layouts
_ALPHABET = b"\0-.e+0123456789\0"
_SOURCE_WIDTH = 4 + 16 + len(_ALPHABET)
_NUL = 20                       # the source column of the padding
_EXPONENTS = _E_MAX + 2 - _E_MIN    # E after a carry, in [-270, 271]
_LAYOUT_WIDTH = 24              # the longest text, "-d.dddddddddddddddde-270"


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Read-only tables of the kernel.  For s in [-271, 286] (index
    s + 271): ``hi`` the double nearest 10^s, ``lo`` the double nearest
    10^s - hi, ``hh`` + ``hl`` Dekker's split of hi, and ``ceil`` the
    smallest double >= 10^s.  For each 4-digit chunk 0..9999: ``chars`` its
    four ASCII digits as the bytes of one uint32, and ``zeros`` its trailing
    zeros (4 for 0)."""
    hi, lo, ceil = [], [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        f = num / den                   # int division is correctly rounded
        f_num, f_den = f.as_integer_ratio()
        hi.append(f)
        lo.append((num * f_den - f_num * den) / (den * f_den))
        ceil.append(f if f_num * den >= num * f_den else math.nextafter(f, math.inf))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    chunk = np.arange(10_000)
    chars = (chunk[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    tables = {"hi": hi, "lo": np.array(lo), "hh": hh, "hl": hi - hh, "ceil": np.array(ceil),
              "chars": chars.view(np.uint32).ravel(),
              "zeros": sum(chunk % 10 ** j == 0 for j in range(1, 5))}
    for a in tables.values():
        a.setflags(write=False)
    return tables


def _const(ch: str) -> int:
    return _NUL + _ALPHABET.index(ch.encode())


@functools.cache
def _layout(code: int) -> bytes:
    """The source columns of the text of a cell whose ``code`` packs (sign,
    E, number of digits) as ``float_text`` does, one byte each, padded with
    ``_NUL`` to ``_LAYOUT_WIDTH``.  Digit 0 of D is column 0, digit j > 0
    column j + 3, a constant character ``_const(ch)``.  ``.17g`` writes
    10^-4 <= |x| < 10^17 in positional notation and the rest in scientific,
    and drops trailing zeros and a bare point."""
    rest, digits = divmod(code, _DIGITS + 1)
    negative, e = divmod(rest, _EXPONENTS)
    e += _E_MIN
    column = [0] + list(range(4, 4 + _DIGITS - 1))
    out = [_const("-")] if negative else []
    if 0 <= e < _DIGITS:
        out += column[:e + 1]
        if digits > e + 1:
            out += [_const(".")] + column[e + 1:digits]
    elif -4 <= e < 0:
        out += [_const("0"), _const(".")] + [_const("0")] * (-e - 1) + column[:digits]
    else:
        out += column[:1]
        if digits > 1:
            out += [_const(".")] + column[1:digits]
        out += [_const(ch) for ch in f"e{e:+03d}"]
    return bytes(out).ljust(_LAYOUT_WIDTH, bytes([_NUL]))


def _text_matrix(texts) -> np.ndarray:
    """Strings as a NUL-padded (len, width) uint8 matrix."""
    encoded = np.array([t.encode() for t in texts], dtype="S")
    return encoded.view(np.uint8).reshape(len(encoded), encoded.itemsize)


def _distinct_text(cells: np.ndarray, spell) -> np.ndarray:
    """The text of a 1-D array of cells: ``spell`` turns the array of its
    distinct cells, sorted by ``np.unique``, into their strings, and one
    gather spreads those to the cells."""
    distinct, inverse = np.unique(cells, return_inverse=True)
    return _text_matrix(spell(distinct)).take(inverse, axis=0)


def _float_fallback(x: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each cell, once per bit pattern (-0.0 and 0.0
    differ in text, and nan equals no float)."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return _distinct_text(bits, lambda d: [format(v, ".17g") for v in d.view(np.float64).tolist()])


def _round17(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For finite |x| in [10^-270, 10^271): the 17 significant digits D as
    an int64, the exponent E, and whether y = |x| 10^(16-E) lies within
    ``_TIE`` of a tie."""
    t = _tables()
    ceil = t["ceil"]
    e = np.floor(np.log10(ax)).astype(np.intp)      # off by one next to a power of ten
    e += ax >= ceil[e + 1 - _S_MIN]
    e -= ax < ceil[e - _S_MIN]
    s = 16 - _S_MIN - e                             # the index of 10^(16 - E)
    hi, hh, hl = t["hi"].take(s), t["hh"].take(s), t["hl"].take(s)
    # Dekker's exact product ax hi = ph + pl, then y = ph + (pl + ax lo)
    c = _SPLIT * ax
    xh = c - (c - ax)
    xl = ax - xh
    ph = ax * hi
    pl = (((xh * hh - ph) + xh * hl) + xl * hh) + xl * hl
    rest = pl + ax * t["lo"].take(s)
    # ph >= 2^53 is an integer, so D = ph + round(rest)
    whole = np.floor(rest)
    frac = rest - whole
    d = ph.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    return d, e, np.abs(frac - 0.5) < _TIE


def _digit_source(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source rows of the layouts for 17-digit integers D, and the number
    of digits of each once trailing zeros go."""
    t = _tables()
    lead = d // 10 ** 16
    high8, low8 = np.divmod(d - lead * 10 ** 16, 10 ** 8)
    chunks = np.empty((len(d), 4), dtype=np.intp)   # four 4-digit chunks after the lead
    np.divmod(high8, 10 ** 4, out=(chunks[:, 0], chunks[:, 1]))
    np.divmod(low8, 10 ** 4, out=(chunks[:, 2], chunks[:, 3]))
    zeros = t["zeros"].take(chunks)
    trailing = zeros[:, 0]
    for j in (1, 2, 3):     # a chunk's zeros add to those of the chunks after it if it is 0
        trailing = zeros[:, j] + (zeros[:, j] == 4) * trailing
    source = np.empty((len(d), _SOURCE_WIDTH), dtype=np.uint8)
    words = source.view(np.uint32)
    words[:, 1:5] = t["chars"].take(chunks)
    words[:, 5:] = np.frombuffer(_ALPHABET, dtype=np.uint32)
    source[:, 0] = lead + ord("0")
    return source, _DIGITS - trailing


def float_text(x) -> np.ndarray:
    """The ``.17g`` text of each value of the 1-D float array ``x`` as a
    NUL-padded ``(len(x), width)`` uint8 matrix, bit-exact with
    ``format(float(v), ".17g")``."""
    x = np.asarray(x, dtype=np.float64)
    ceil = _tables()["ceil"]
    ax = np.abs(x)
    inside = (ax >= ceil[_E_MIN - _S_MIN]) & (ax < ceil[_E_MAX + 1 - _S_MIN])  # no 0, nan, inf
    d, e, tie = _round17(np.where(inside, ax, 1.0))
    source, digits = _digit_source(d)
    # one gather through each cell's layout, found by its code
    code = (np.signbit(x) * _EXPONENTS + (e - _E_MIN)) * (_DIGITS + 1) + digits
    low = int(code.min()) if len(code) else 0
    seen = np.bincount(code - low) > 0
    table = np.frombuffer(b"".join(map(_layout, (np.flatnonzero(seen) + low).tolist())),
                          dtype=np.uint8).reshape(-1, _LAYOUT_WIDTH)
    table = table[:, :np.count_nonzero((table != _NUL).any(axis=0))]   # the longest layout
    index = (table.take(np.cumsum(seen).take(code - low) - 1, axis=0)
             + np.arange(0, len(x) * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None])
    text = source.ravel().take(index)
    redo = np.flatnonzero(~inside | tie)
    if len(redo):
        fallback = _float_fallback(x[redo])
        if fallback.shape[1] > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, fallback.shape[1] - text.shape[1])))
        text[redo] = 0
        text[redo, :fallback.shape[1]] = fallback
    return text


def _column_text(col: np.ndarray) -> np.ndarray:
    """Integers and bools by ``str(int(v))``, any other non-float column by
    the ``str`` of its cells, once per distinct value.  Bools are read as
    their bytes 0 and 1; an object column is spelled cell by cell first,
    since ``np.unique`` cannot sort None beside str."""
    if col.dtype.kind == "b":
        col = col.view(np.uint8)
    elif col.dtype.kind == "O":
        col = np.array(list(map(str, col.tolist())), dtype=str)
    return _distinct_text(col, lambda d: list(map(str, d.tolist())))


def csv_lines(columns) -> str:
    """Equal-length columns as CSV lines, one per row, each ended by a newline.
    Floats are spelled by ``float_text``, every float column of the block in
    one call; integers and bools by ``str(int(v))``; any other column by the
    ``str`` of its cells."""
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0])
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    texts = [None if j in floats else _column_text(col) for j, col in enumerate(columns)]
    if floats:
        text = float_text(np.concatenate([columns[j] for j in floats]))
        for i, j in enumerate(floats):
            texts[j] = text[i * rows:(i + 1) * rows]
    ends = np.cumsum([text.shape[1] + 1 for text in texts])
    out = np.empty((rows, ends[-1]), dtype=np.uint8)
    for text, end in zip(texts, ends):
        out[:, end - 1 - text.shape[1]:end - 1] = text
        out[:, end - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes().decode()
