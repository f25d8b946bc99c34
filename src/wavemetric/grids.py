"""Uniform rectilinear grids over the finite window of a box domain, and CSV output.

Two node placements are supported.  Interior grids (the default, and the only
kind the evolution code accepts) put nodes strictly inside the window with
spacing extent/(n+1), so coefficient fields that degenerate or blow up on the
boundary stay evaluable.  Closure grids include the window edges with spacing
extent/(n-1), which the lattice-distance code uses so that distances between
box corners come out exact.

``write_csv`` writes the float tables behind every CSV the CLI produces (the
velocity, distance and state fields and the evolution log).  Each cell is the
text of ``f"{v:.17g}"``, made for whole arrays at once by the package's own
numpy conversion ``_formatted``: double-double scaling by exact powers of ten
with an error bound, Python's conversion only for a rounding the bound leaves
open (Loitsch, PLDI 2010; Adams, OOPSLA 2019, take the same approach).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ValidationError

MIN_NODES = 8


@dataclass(frozen=True)
class Grid:
    domain: "BoxDomain"
    shape: tuple[int, ...]
    interior: bool = True

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) != self.domain.d:
            raise ValidationError(
                f"grid rank {len(self.shape)} does not match domain dimension "
                f"{self.domain.d}"
            )
        if any(n < MIN_NODES for n in self.shape):
            raise ValidationError(f"need at least {MIN_NODES} nodes per axis, got {self.shape}")
        for lo, hi in zip(self.domain.lower, self.domain.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(
                    "grid requires a finite sampling window on every axis; "
                    "set finite lower/upper values (unbounded flags may stay)"
                )
        axes = []
        spacing = []
        for n, lo, hi in zip(self.shape, self.domain.lower, self.domain.upper):
            extent = hi - lo
            if self.interior:
                h = extent / (n + 1)
                axes.append(lo + h * np.arange(1, n + 1))
            else:
                h = extent / (n - 1)
                axes.append(lo + h * np.arange(n))
            spacing.append(h)
        object.__setattr__(self, "_axes", tuple(axes))
        object.__setattr__(self, "_spacing", tuple(spacing))

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return self._axes

    @property
    def spacing(self) -> tuple[float, ...]:
        return self._spacing

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*shape, d)."""
        mesh = np.meshgrid(*self._axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def _ball_norms(self) -> np.ndarray | None:
        """|x - center| per node for the domain's excluded ball, read-only;
        None without one.  Formed once per grid: the boundary distances and
        the passable mask of the lattice graph both derive from it."""
        if self.domain.excluded_ball is None:
            return None
        norms = np.linalg.norm(self.coords() - np.asarray(self.domain.excluded_ball[0]), axis=-1)
        norms.setflags(write=False)
        return norms

    def node_coords(self, index: tuple[int, ...]) -> np.ndarray:
        return np.array([ax[i] for ax, i in zip(self._axes, index)])

    def nearest_node(self, point) -> tuple[int, ...]:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.d,):
            raise ValidationError(f"expected a {self.d}-vector, got shape {point.shape}")
        idx = []
        for ax, p in zip(self._axes, point):
            idx.append(int(np.clip(np.round((p - ax[0]) / (ax[1] - ax[0])), 0, len(ax) - 1)))
        return tuple(idx)

    def trapezoid_weights(self) -> np.ndarray:
        """Tensor-product trapezoid quadrature weights, one per node."""
        per_axis = []
        for ax, h in zip(self._axes, self._spacing):
            w = np.full(len(ax), h)
            w[0] *= 0.5
            w[-1] *= 0.5
            per_axis.append(w)
        return reduce(np.multiply.outer, per_axis)


CSV_CHUNK_ROWS = 4096


def write_csv(path, names, table) -> None:
    """Write a float table as CSV: a header row, then one row per table row.

    Each cell holds the text ``f"{v:.17g}"`` gives for its value (``nan``,
    ``inf`` and ``-0`` included) and rows end in ``\r\n`` as ``csv.writer``
    ends them, so the bytes equal what ``csv.writer`` writes for rows of those
    strings.  The text comes from the package's own vectorised conversion,
    ``_formatted``, not from Python's.

    Tables are mostly repeats (axis values, constant columns, zero imaginary
    parts), so the table is written in chunks of ``CSV_CHUNK_ROWS`` rows and
    each chunk converts every distinct float64 bit pattern once
    (``_csv_chunk``).  A cell's text depends only on its bit pattern: keying
    on bits keeps -0 apart from 0, and every NaN payload prints ``nan``.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\r\n").encode())
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            fh.write(_csv_chunk(table[start:start + CSV_CHUNK_ROWS]))


def _csv_chunk(part: np.ndarray) -> np.ndarray:
    """The CSV rows of a non-empty 2-D float64 block, as a uint8 array.

    A column whose cells all share the first row's bit pattern is written
    from that row alone.  The first row's bit patterns and those of the other
    columns are sorted together by ``np.unique``, and ``_formatted`` converts
    each distinct one in a single call.  One line holds the constant columns'
    text and a run of NULs as wide as each other column's widest text, every
    cell followed by "," (or "\r\n" after the last).  It is copied to each
    row, the other columns' text is filled in, and the NULs are dropped.
    """
    bits = part.view(np.uint64)
    ncols = part.shape[1]
    varying = np.flatnonzero((bits != bits[0]).any(axis=0))
    keys, inverse = np.unique(np.concatenate([bits[0], bits[:, varying].ravel()]),
                              return_inverse=True)
    text, lengths = _formatted(keys.view(np.float64))
    cells = [text[i, :lengths[i]].tobytes() for i in inverse[:ncols].tolist()]
    inverse = inverse[ncols:].reshape(len(part), len(varying))
    for j, c in enumerate(varying):
        cells[c] = bytes(int(np.take(lengths, inverse[:, j]).max()))
    line = b",".join(cells) + b"\r\n"
    rows = np.empty((len(part), len(line)), np.uint8)
    rows[:] = np.frombuffer(line, np.uint8)
    starts = np.cumsum([0] + [len(cell) + 1 for cell in cells])
    for j, c in enumerate(varying):
        width = len(cells[c])
        rows[:, starts[c]:starts[c] + width] = np.take(text[:, :width], inverse[:, j], axis=0)
    return rows[rows != 0]


# -- the text of %.17g -------------------------------------------------------
#
# A finite nonzero value is rounded to 17 significant digits, |v| close to
# n * 10**(k - 16) with 10**16 <= n < 10**17 (``_significand``), and n and k
# are laid out by the %g rules (``_layout``): fixed notation for -4 <= k < 17,
# else d.ddde±XX, trailing zeros dropped.  A text is at most 24 bytes
# ("-1.2345678901234567e-308") and is built as three little-endian uint64
# words: byte i of the text sits in bits 8*(i % 8) of word i // 8.

_TEXT_BYTES = 24
_SPLITTER = 134217729.0            # 2**27 + 1: Dekker's split into two 26-bit halves
# The scaled product's error is below 2**-44 (see ``_rounded``); a rounding
# whose fraction lies within this of one half is left to Python.
_TIE_MARGIN = 2.0 ** -40
# Values converted at once.  Each temporary (at most 3 x 2048 words, 48 KiB)
# stays small enough for the allocator to reuse; converting 12,000 or more
# values in one pass was about half again slower per value on glibc, whose
# larger blocks are fresh pages each time.
_BLOCK = 2048
_MIN_EXPONENT = -324               # k of the least subnormal, 5e-324
_MAX_EXPONENT = 308


def _digit_tables():
    """ASCII words of the 4-digit groups 0000-9999, and their significant lengths.

    ``ascii[g]`` holds the four characters of g in its low 32 bits.  Of the
    8 digits ``g * 10**4 + h``, the last nonzero one is digit
    ``max(first[g], second[h])`` (0 when all are zero).
    """
    g = np.arange(10000)
    ascii = (g // 1000 + ord("0") | (g // 100 % 10 + ord("0")) << 8
             | (g // 10 % 10 + ord("0")) << 16 | (g % 10 + ord("0")) << 24)
    own = np.where(g > 0, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0), 0)
    return ascii.astype(np.uint64), own.astype(np.uint8), np.where(g > 0, own + 4, 0).astype(np.uint8)


def _notation_tables():
    """Per exponent k (entry k - _MIN_EXPONENT): how %g lays out n * 10**(k - 16).

    Returns how many of digits 2-17 stand before the point at least (k in
    fixed notation with k >= 0, else 0); the point's place among digits 2-17
    (16, past them all, for fixed notation with k < 0); the word "e±XX" of
    exponent notation and its length.  Then, per entry 2 * (k - _MIN_EXPONENT)
    plus 1 for a negative value, the word of what goes before the first digit
    (the sign, and "0." and zeros when -4 <= k < 0) and its length.
    """
    k = np.arange(_MIN_EXPONENT, _MAX_EXPONENT + 1)
    fixed = (k >= -4) & (k <= 16)
    zeros_len = np.where(fixed & (k < 0), 1 - k, 0).astype(np.uint64)
    zeros = np.uint64(0x303030302E30) & ((np.uint64(1) << zeros_len * 8) - 1)  # "0.000"
    size = np.where(np.abs(k) >= 100, 3, 2).astype(np.uint64)
    exponent = (ord("e") | np.where(k < 0, ord("-"), ord("+")).astype(np.uint64) << 8
                | (_ASCII4[np.abs(k)] >> (4 - size) * 8) << 16)
    prefix = np.stack([zeros, ord("-") | zeros << 8], axis=1).ravel()
    prefix_len = np.stack([zeros_len, zeros_len + 1], axis=1).ravel().astype(np.int64)
    return (np.where(fixed & (k >= 0), k, 0), np.where(fixed, np.where(k >= 0, k, 16), 0),
            np.where(fixed, 0, exponent), np.where(fixed, 0, size + 2).astype(np.int64),
            prefix, prefix_len)


def _two_words(value: int) -> list[int]:
    return [(value >> 64 * i) & (2 ** 64 - 1) for i in range(2)]


_ASCII4, _FIRST_HALF, _SECOND_HALF = _digit_tables()
_INTEGER, _POINT, _EXPONENT, _EXPONENT_LEN, _PREFIX, _PREFIX_LEN = _notation_tables()
# the bytes below c of a 16-byte string, and "." at byte c, for c in 0..16, per word
_BELOW = np.array([_two_words(2 ** (8 * c) - 1) for c in range(17)], np.uint64).T.copy()
_DOT = np.array([_two_words(ord(".") << 8 * c) for c in range(17)], np.uint64).T.copy()
_WORD_BITS = np.array([[0], [64], [128]], np.uint64)
_SPECIAL_TEXTS = (b"nan", b"inf", b"-inf", b"0", b"-0")
_SPECIAL_WORDS = np.frombuffer(b"".join(t.ljust(_TEXT_BYTES, b"\0") for t in _SPECIAL_TEXTS),
                               np.uint64).reshape(len(_SPECIAL_TEXTS), 3)
_SPECIAL_LENGTHS = np.array([len(t) for t in _SPECIAL_TEXTS])


def _formatted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of ``f"{v:.17g}"`` for each value of a non-empty float64 array.

    Returns ``(text, lengths)``: ``text`` is a (len(values), 24) uint8 array
    holding each value's ASCII text from its first column on, padded with
    NULs, and ``lengths`` counts its bytes.  The text equals Python's for
    every float64 bit pattern.  NaN (any payload or sign), ±inf and ±0 take
    fixed texts.  Every other value is rounded to 17 digits in numpy, and only
    one whose rounding the error bound cannot decide (a value within 2**-40
    of a tie, or an exact tie below 1e-6) is converted by Python's ``%.17g``.
    """
    neg = np.signbit(values)
    magnitude = np.abs(values)
    finite = (magnitude > 0) & (magnitude < np.inf)
    special = None if finite.all() else np.flatnonzero(~finite)
    if special is not None:
        magnitude[special] = 1.0
    # the decimal exponent from log10, which may be one off, and the powers
    # of ten it asks for
    estimate = np.floor(np.log10(magnitude)).astype(np.int64)
    powers = _powers(16 - estimate)
    words = np.empty((len(values), 3), np.uint64)
    lengths = np.empty(len(values), np.int64)
    step = -(-len(values) // -(-len(values) // _BLOCK))        # equal blocks of at most _BLOCK
    for start in range(0, len(values), step):
        block = slice(start, start + step)
        n, k, undecided = _significand(magnitude[block], estimate[block], powers)
        words[block], lengths[block] = _layout(n, k, neg[block])
        if undecided.any():
            for i in (np.flatnonzero(undecided) + start).tolist():
                text = f"{values[i]:.17g}".encode()
                words[i] = np.frombuffer(text.ljust(_TEXT_BYTES, b"\0"), np.uint64)
                lengths[i] = len(text)
    if special is not None:
        v = values[special]
        which = np.where(np.isnan(v), 0, np.where(v == 0, 3, 1) + neg[special])
        words[special] = _SPECIAL_WORDS[which]
        lengths[special] = _SPECIAL_LENGTHS[which]
    return words.view(np.uint8), lengths


def _significand(a: np.ndarray, k: np.ndarray, powers):
    """Round finite positive values to 17 significant digits.

    ``k`` is floor(log10(a)), or one off, and ``powers`` holds 10**(16 - k).
    Returns ``(n, k, undecided)``: ``a`` is close to ``n * 10**(k - 16)``
    with ``n`` the int64 nearest to ``a * 10**(16 - k)`` (ties to even) and
    10**16 <= n < 10**17.  Where ``undecided`` is set, the product's error
    bound does not settle the rounding and ``n`` may be one off.
    """
    n, undecided, lo = _rounded(a, 16 - k, powers)
    # Where a * 10**(16 - k) lies outside [1e16, 1e17), k is one off.  n
    # shows it, except at n == 1e16, where the product is 1e16 + lo: there
    # only the sign of lo does (9.9999999999999999e-300 is not 1e-299).
    check = np.flatnonzero((n - (10 ** 16 + 1)).view(np.uint64) >= 9 * 10 ** 16)
    off = check[(n[check] != 10 ** 16) | (lo[check] < 0)]
    if len(off):
        k = k.copy()
        k[off] += np.where(n[off] > 10 ** 17, 1, -1)
        s = 16 - k[off]
        n[off], undecided[off], _ = _rounded(a[off], s, _powers(s))
    up = n == 10 ** 17
    if up.any():
        n[up] = 10 ** 16
        k = k + up
    return n, k, undecided


def _rounded(a: np.ndarray, s: np.ndarray, powers):
    """``a * 10**s`` rounded half to even to an int64, whether that is undecided, and its ``lo``.

    10**s comes from ``powers`` as ``p_hi + p_lo`` times 2**b, so the product
    is ``x * (p_hi + p_lo)`` with ``x = a * 2**b`` exact.  ``x * p_hi`` is
    exactly ``p + pl`` by Dekker's product (numpy has no fused multiply-add)
    and ``x * p_lo`` is added to ``pl``.  For a product below 2**58 the sum
    ``hi + lo`` is within 2**-44 of ``a * 10**s``, and exact where 10**s is a
    double.  ``hi`` is then an even integer (the product is at least 2**53),
    so rounding ``lo`` half to even rounds the sum.  The rounding is undecided
    where ``lo`` lies within the margin of ``_power_parts`` of a half.
    """
    table, b, base = powers
    i = s - base
    p_hi, hh, hl, p_lo, margin = np.take(table, i, axis=1)
    x = np.ldexp(a, np.take(b, i))
    c = x * _SPLITTER
    xh = c - (c - x)
    xl = x - xh
    p = x * p_hi
    pl = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl
    q = pl + x * p_lo
    hi = p + q
    lo = q - (hi - p)
    rounded = np.rint(lo)
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    return n, np.abs(lo - rounded) > margin, lo


def _powers(s: np.ndarray):
    """10**j for the exponents j present in ``s``, as ``(table, b, base)``.

    Column ``j - base`` of ``table`` holds p_hi, its Dekker halves, p_lo and
    the margin of ``_power_parts(j)``, and ``b[j - base]`` its binary
    exponent; columns of absent exponents are zero.
    """
    base = int(s.min())
    present = np.flatnonzero(np.bincount(s - base))
    parts = np.zeros((6, int(present[-1]) + 1))
    parts[:, present] = np.array([_power_parts(base + j) for j in present.tolist()]).T
    return parts[:5], parts[5].astype(np.int64), base


def _power_parts(j: int) -> tuple[float, ...]:
    """10**j from exact Python integers, for ``_rounded``.

    Returns p_hi in [1, 2), its two Dekker halves, p_lo below 2**-52, the
    rounding margin, and the binary exponent b: ``p_hi + p_lo`` is
    10**j / 2**b cut to 106 bits.  The margin is 1 (never reached) where that
    is 10**j itself and p_lo is 0, so that 10**j is a double and the product
    exact, else 0.5 - 2**-40.
    """
    if j >= 0:
        v = 10 ** j
        b = v.bit_length() - 1
        m = v << (105 - b) if b <= 105 else v >> (b - 105)
        exact = b <= 105 and m % 2 ** 53 == 0
    else:
        t = 10 ** -j
        b = -t.bit_length()                    # 2**b < 10**j < 2**(b + 1)
        m = (1 << (105 - b)) // t
        exact = False
    p_hi = math.ldexp(m >> 53, -52)
    c = p_hi * _SPLITTER
    hh = c - (c - p_hi)
    margin = 1.0 if exact else 0.5 - _TIE_MARGIN
    return p_hi, hh, p_hi - hh, math.ldexp(m % 2 ** 53, -105), margin, float(b)


def _layout(n: np.ndarray, k: np.ndarray, neg: np.ndarray):
    """The %g text of ``±n * 10**(k - 16)`` as (len(n), 3) uint64 words, and its lengths.

    The first digit is placed on its own.  Digits 2-17 are cut after the last
    significant one (or after the integer part, if that is longer), and the
    point is put among them by splitting them into the bytes before it and the
    bytes from it on, which move up one byte.  Counts and indices are int64:
    numpy gathers fastest with intp indices.
    """
    d0 = n // 10 ** 16
    q = n // 10 ** 8
    halves = np.empty((2, len(n)), np.int64)                    # digits 2-9 and 10-17
    np.subtract(q, d0 * 10 ** 8, out=halves[0])
    np.subtract(n, q * 10 ** 8, out=halves[1])
    high = halves // 10 ** 4
    low = halves - high * 10 ** 4
    digits = _ASCII4[high] | _ASCII4[low] << 32
    last = np.maximum(_FIRST_HALF[high], _SECOND_HALF[low])
    tail = np.where(last[1] > 0, last[1] + 8, last[0])
    i = k - _MIN_EXPONENT
    kept = np.maximum(tail, _INTEGER[i])
    point = _POINT[i]
    point = np.where(kept > point, point, 16)
    digits &= np.take(_BELOW, kept, axis=1)
    before = np.take(_BELOW, point, axis=1)
    after = digits & ~before
    body = np.zeros((3, len(n)), np.uint64)
    body[:2] = digits & before | after << 8 | np.take(_DOT, point, axis=1)
    body[1:] |= after >> 56
    # the sign and "0.000" go before the first digit, digits 2-17 after it
    j = 2 * i + neg
    lead = _PREFIX_LEN[j]
    up = ((lead + 1) * 8).view(np.uint64)
    text = body << up
    text[1:] |= body[:2] >> 64 - up
    text[0] |= _PREFIX[j] | (d0 + ord("0")).view(np.uint64) << (lead * 8).view(np.uint64)
    length = lead + 1 + kept + (point < 16)
    exponent = _EXPONENT[i]
    if exponent.any():
        # "e±XX" at bit 8*length.  A shift by 64 or more gives 0, and the
        # uint64 differences wrap to such shifts where a word lies wholly
        # before or after the exponent's bytes.
        at = (length * 8).view(np.uint64)
        text |= exponent << (at - _WORD_BITS) | exponent >> (_WORD_BITS - at)
        length += _EXPONENT_LEN[i]
    return text.T, length
