"""Exact ``%.17g`` of float64 arrays, vectorised: the bytes ``%`` writes.

``fields(f, out, keep)`` writes the text of ``f[i]`` into row i of a
``WIDTH``-byte matrix and marks its bytes in ``keep``, so
``out[i][keep[i]]`` is ``b"%.17g" % f[i]``.

Why it is exact where 1e-6 < |x| < 1e17:

- Let d = floor(log10|x|) and p = 16 - d.  Then 0 <= p <= 22, so 10**p
  is an exact double, and Dekker's TwoProduct (Veltkamp splits, no fused
  multiply-add) writes |x| * 10**p exactly as hi + lo.
- log10 may misjudge d by one next to a power of ten.  The exact hi + lo
  tells: outside [1e16, 1e17), d moves by one and the product is formed
  again.
- Then hi >= 1e16 > 2**53, so hi is an even integer and the 17-digit
  round-half-even of hi + lo is the int64 ``hi + rint(lo)``: rint rounds
  half to even, and adding it to an even hi keeps the parity.  It never
  rounds up to 10**17: that needs |x| within 5e-18 relative below a power
  of ten, and the closest doubles below 1e-6 ... 1e17 are 4.5e-17 away.
- The 17 digits come from four-digit lookups.  ``%g`` prints them in
  fixed notation for -4 <= d < 17 and as ``D.DDDe-0X`` for d = -6, -5,
  with trailing zeros removed; the layout depends on d alone, so it is
  done once per exponent over that exponent's rows.

Every other element (zero, subnormals, nan, inf, and |x| outside that
range) is formatted by ``%`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest %.17g text, "-1.7976931348623157e+308"
WIDTH = 24

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
# the exponent d, -6..16, of the 17 digits is stored as the code d + _D0
_D0 = 6
_CODES = 23


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _tables():
    """Lookup tables, built on first use: digits, zeros, powers, lengths, masks."""
    # built from Python strings: numpy work on 10,000-row tables here left
    # the CLI's peak memory about 1 MB higher
    text = "".join(f"{c:04d}" for c in range(10_000))
    quads = np.frombuffer(text.encode("ascii"), np.uint32)  # c's four ASCII digits
    zeros = np.array([4 - len(text[i : i + 4].rstrip("0")) for i in range(0, 40_000, 4)])
    pow10 = np.array([10**p for p in range(23)], dtype=float)
    # text length by code and number of trailing zeros of the 17 digits
    d = np.arange(_CODES)[:, None] - _D0
    last = 16 - np.arange(17)[None, :]  # index of the last nonzero digit
    fixed = np.where(last > d, last + 2, d + 1)  # D..D[.D..D]
    small = 2 - d + last  # 0.0..0D..D
    expo = np.where(last > 0, last + 2, 1) + 4  # D[.D..D]e±XX
    length = np.where(d < -4, expo, np.where(d < 0, small, fixed))
    # keep[start, stop] marks bytes start..stop-1; start 0 keeps the sign slot
    j = np.arange(WIDTH)
    masks = (j >= np.arange(2)[:, None, None]) & (j < np.arange(WIDTH + 1)[None, :, None])
    return quads, zeros, pow10, _split(pow10), length, _rows(masks.reshape(-1, WIDTH))


def _rows(x):
    """A 2-D array with contiguous rows as a 1-D array of its rows (no copy)."""
    return x.view(np.dtype((np.void, x.shape[1] * x.itemsize)))[:, 0]


def _copy(dst, src):
    """dst[:] = src, one row at a time rather than one byte at a time."""
    if dst.shape[1]:
        _rows(dst)[:] = _rows(src)


def _product(a, ah, al, p, pow10, p_split):
    """a * 10**p exactly, as hi + lo (Dekker's TwoProduct on split halves)."""
    hi = a * pow10[p]
    ph, pl = p_split[0][p], p_split[1][p]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _misses(hi, lo):
    """Whether hi + lo lies at or above 1e17, and whether below 1e16."""
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return up, (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))


def fields(f: np.ndarray, out: np.ndarray, keep: np.ndarray) -> None:
    """Write ``%.17g`` of each f[i] into out[i] (uint8) and mark its bytes in keep[i].

    out and keep are (len(f), WIDTH); a row's text is contiguous: a sign
    slot at column 0, kept only for negatives, then the digits from
    column 1.  Elements ``%`` formats start at column 0.
    """
    quads, zeros, pow10, p_split, length, masks = _tables()
    a = np.abs(f)
    fast = (a > 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    d = np.floor(np.log10(a))
    np.minimum(d, 16.0, out=d)
    d = np.maximum(d, -6.0, out=d).astype(np.intp)
    ah, al = _split(a)
    hi, lo = _product(a, ah, al, 16 - d, pow10, p_split)
    up, down = _misses(hi, lo)
    redo = np.flatnonzero(up | down)
    if len(redo):
        # log10 misjudged d by one next to a power of ten
        r = np.clip(d[redo] + up[redo] - down[redo], -6, 16)
        d[redo] = r
        hi[redo], lo[redo] = _product(a[redo], ah[redo], al[redo], 16 - r, pow10, p_split)
        up, down = _misses(hi[redo], lo[redo])
        fast[redo[up | down]] = False  # never seen: a log10 off by two goes to %
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    # the layout depends on the exponent alone: sort the rows by it, lay out
    # each exponent's run with slices, and put the rows back in order
    code = (d + _D0).astype(np.int8)
    code[~fast] = -1
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(_CODES + 1))
    slow, order = order[: bounds[0]], order[bounds[0] :]
    bounds -= bounds[0]
    n = n[order]
    top = n // 10**8
    low = n - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    q = np.empty((len(n), 5), np.uint32)
    q[:, 0] = quads[first]  # "000D": the first digit is the word's last byte
    q1 = top // 10**4
    q2 = top - q1 * 10**4
    q3 = low // 10**4
    q4 = low - q3 * 10**4
    q[:, 1] = quads[q1]
    q[:, 2] = quads[q2]
    q[:, 3] = quads[q3]
    q[:, 4] = quads[q4]
    digits = q.view(np.uint8)[:, 3:]
    tz = zeros[q4]  # trailing zeros of the 17 digits; zeros[0] is 4
    z = np.flatnonzero(q4 == 0)
    if len(z):
        q1, q2, q3 = q1[z], q2[z], q3[z]
        tz[z] += zeros[q3] + (q3 == 0) * (zeros[q2] + (q2 == 0) * zeros[q1])

    text = np.empty((len(n), WIDTH - 1), np.uint8)
    size = np.empty(len(n), np.intp)
    for c in np.flatnonzero(np.diff(bounds)).tolist():
        e = c - _D0  # this run's exponent
        run = slice(bounds[c], bounds[c + 1])
        t, dg = text[run], digits[run]
        size[run] = length[c][tz[run]]
        if e >= 0:
            _copy(t[:, : e + 1], dg[:, : e + 1])
            t[:, e + 1] = 46
            _copy(t[:, e + 2 : 18], dg[:, e + 1 :])
        elif e >= -4:
            t[:, : 1 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
            _copy(t[:, 1 - e : 18 - e], dg)
        else:  # D[.D..D]e-0X, the suffix after the last kept digit
            t[:, 0] = dg[:, 0]
            t[:, 1] = 46
            _copy(t[:, 2:18], dg[:, 1:])
            at = size[run, None] - 4 + np.arange(4)
            np.put_along_axis(t, at, np.frombuffer(b"e%+03d" % e, np.uint8)[None, :], axis=1)
    out[:, 0] = 45
    _rows(out[:, 1:])[order] = _rows(text)
    key = (f >= 0.0) * (WIDTH + 1) + 1
    key[order] += size
    if len(slow):
        pad = np.frombuffer(
            ((f"%-{WIDTH}.17g" * len(slow)) % tuple(f[slow].tolist())).encode(), np.uint8
        ).reshape(-1, WIDTH)
        out[slow] = pad
        key[slow] = np.count_nonzero(pad != 32, axis=1)
    _rows(keep)[:] = masks[key]
