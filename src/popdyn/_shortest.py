"""Shortest round-trip text of float64 arrays: the bytes ``repr`` gives, cell by cell.

``CsvRows.render`` renders a 2-D float64 block as CSV text: each cell as
``repr`` spells it, NaN as ``NaN``, cells joined by ``,`` and every row
ended by ``\\n``.  It computes with numpy over the whole block; no cell
goes through ``repr``.

Digits.  ``repr`` prints the shortest decimal that reads back as the same
double, the nearest one when several are that short.  Ryū (U. Adams,
"Ryū: fast float-to-string conversion", PLDI 2018) finds exactly those
digits with fixed-width integers: the double's interval of decimals that
round to it, scaled by a power of ten, is bounded by three products of
``4 m2 + delta`` and a 125-bit multiplier that depends on the exponent
alone, shifted right by 118 to 125 bits.  Here the product is computed
once in 32-bit limbs on uint64 arrays and the other two bounds reached by
adding and subtracting ``2 mul`` (``_candidates``).  Digits are removed
while the bounds still differ in what is left (``_shortest``): three
rounds over the whole block, then, on the cells still going, one more per
trailing zero.  A removed tail of exactly one half rounds to even where
the scaled value is exact; doubles in [2^50, 2^131) get Ryū's
divisibility tests, and those with an exact lower bound its general case.

Layout.  With ``decpt`` = digit count + exponent, ``repr`` writes
positional text for -4 < decpt <= 16 (``0.0001``, ``113.7``,
``1000000000000000.0``) and exponent text otherwise (``1e+16``,
``1e-05``, ``-1.5e-07``).  Each cell is drawn into a 32-byte slot: its
digits as ASCII (4-digit table lookups), kept from the first significant
byte, the tail after the decimal point moved up one byte to make room for
the point, the sign at byte 0, the exponent text and separator at the end;
every byte not drawn is NUL, and one ``bytes.translate`` per block drops
them.  The masks that place the digits depend only on the digit count and
``decpt``, and are tabulated with the special cells (``inf``, ``NaN``).

The module builds its tables once, from Python integers, when imported.
All arithmetic on uint64 arrays stays uint64 on both sides: scalars are
``np.uint64`` and masks are cast before they meet a uint64 array.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_TEN = _U(10)
_MANTISSA = _U((1 << 52) - 1)
# biased exponents whose bounds need Ryū's divisibility tests before digits
# are removed: q <= 1 below 2^54 and q <= 21 from 2^54 on
_GENERAL_LO, _GENERAL_HI = 1073, 1153


def _ryu_tables():
    """Per biased exponent: multiplier limbs, shift - 118, e10, trailing-zero mask, q and
    the scaled lower bound of the power of two."""
    biased = np.minimum(np.arange(2048), 2046)  # inf and NaN read a finite row
    e2 = np.where(biased > 0, biased - 1077, -1076)
    up = e2 >= 0
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    # the power of 5 the multiplier carries: 5^-q from 2^54 on, 5^i below
    k = np.where(up, q, -e2 - q)
    pow5 = [5**kk for kk in range(int(k.max()) + 1)]
    len5 = np.array([p.bit_length() for p in pow5])
    inverse = [(1 << (124 + p.bit_length())) // p + 1 for p in pow5]
    direct = [p >> (p.bit_length() - 125) if p.bit_length() >= 125 else p << (125 - p.bit_length()) for p in pow5]

    def limbs(muls):
        return np.array([[m >> (32 * w) & 0xFFFFFFFF for m in muls] for w in range(4)], dtype=np.uint64)

    mul_limbs = np.where(up, limbs(inverse)[:, k], limbs(direct)[:, k])
    j = np.where(up, q - e2 + 124 + len5[k], q - len5[k] + 125)
    e10 = np.where(up, q, q + e2).astype(np.intp)
    # (mv & mask) == 0 iff mv has q trailing zero bits; 0 sends the general exponents there too
    tz_mask = np.full(2048, (1 << 64) - 1, dtype=np.uint64)
    low = ~up & (q < 63)
    tz_mask[low] = np.left_shift(_U(1), q[low].astype(np.uint64)) - _U(1)
    tz_mask[(biased >= _GENERAL_LO) & (biased <= _GENERAL_HI)] = 0
    # the lower bound of a power of two (mantissa 0) is a quarter step, not half, above E = 1
    vm_pow2 = np.fromiter(
        (
            ((1 << 54) - 1 - (b <= 1)) * (inverse if u else direct)[kk] >> jj if b else 0
            for b, u, kk, jj in zip(biased.tolist(), up.tolist(), k.tolist(), j.tolist())
        ),
        dtype=np.uint64,
        count=2048,
    )
    return mul_limbs, (j - 118).astype(np.uint64), e10, tz_mask, q.astype(np.uint64), vm_pow2


_LIMBS, _SHIFT, _E10, _TZ_MASK, _Q, _VM_POW2 = _ryu_tables()
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# the least remainder that rounds the last removed digit up (none when nothing was removed)
_HALF = np.array([1] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64)
_DIGIT_BOUNDS = _POW10[1:18]


class CsvRows:
    """Renders float64 blocks as CSV text in work arrays it keeps between calls.

    ``render(block)`` gives each cell of the 2-D ``block`` as ``repr``
    spells it, ``NaN`` for NaN, cells joined by ``,`` and every row ended
    by ``\\n``.  The whole-block arithmetic writes into work arrays the
    object keeps, which grow to the largest block rendered: fresh
    temporaries for every step made the same arithmetic 40% slower, through
    the allocator returning and refaulting their pages.
    """

    def __init__(self):
        self._cells = 0

    def render(self, block: np.ndarray) -> bytes:
        rows, cols = block.shape
        n = rows * cols
        if n > self._cells:
            self._u = np.empty((_WORK_ROWS, n), dtype=np.uint64)
            self._i = np.empty((3, n), dtype=np.intp)
            self._b = np.empty((3, n), dtype=bool)
            self._words = np.empty((4, n), dtype=np.uint64)
            self._cells = n
        u = [row[:n] for row in self._u]
        i = [row[:n] for row in self._i]
        b = [row[:n] for row in self._b]
        words = self._words[:, :n]
        bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
        E, M = u[0], u[1]
        np.right_shift(bits, _U(52), out=E)
        E &= _U(0x7FF)
        Ei = E.view(np.int64)
        np.bitwise_and(bits, _MANTISSA, out=M)
        digits, exp = _shortest(E, Ei, M, u[2:], i, b)
        _layout(bits, E, M, digits, exp, u[2:], i, b, words)
        # the separators in byte 31: commas, and a newline after the last column
        separators = np.full(cols, ord(","), dtype=np.uint64)
        separators[-1] = ord("\n")
        words[3].reshape(rows, cols)[...] |= separators << _U(56)
        return words.T.tobytes().translate(None, b"\0")


# uint64 work arrays of a CsvRows: E, M, and 20 for the digits (_candidates)
_WORK_ROWS = 22


def _take(table, index, out):
    # the indices are in range; "clip" skips the bounds buffer of the default mode
    return np.take(table, index, out=out, mode="clip")


def _candidates(E, Ei, M, u):
    """``4 m2`` and Ryū's scaled bounds ``vr``, ``vp``, ``vm`` in work arrays ``u``.

    ``vr = (4 m2 * mul) >> j``, ``vp`` and ``vm`` the same of ``4 m2 + 2``
    and ``4 m2 - 2``: the product is formed once in 32-bit limbs and
    ``2 mul`` added and subtracted limb by limb.  ``u[0]`` holds ``4 m2``,
    ``u[1:4]`` the bounds; the rest are left free.
    """
    a, vr, vp, vm, x0, x1, b0, b1, b2, b3, s, r, q, v, w, y, z, p45, shift, t = u[:20]
    np.minimum(E, _U(1), out=a)
    a <<= _U(52)
    a |= M
    a <<= _U(2)
    np.bitwise_and(a, _M32, out=x0)
    np.right_shift(a, _U(32), out=x1)
    for row, limb in zip(_LIMBS, (b0, b1, b2, b3)):
        _take(row, Ei, limb)
    # the 32-bit columns of (x1, x0) * (b3, b2, b1, b0), each carried into the next
    np.multiply(x0, b0, out=s)
    np.multiply(x0, b1, out=r)
    r += np.right_shift(s, _U(32), out=t)
    np.multiply(x1, b0, out=q)
    q += np.bitwise_and(r, _M32, out=t)
    np.multiply(x0, b2, out=v)
    v += np.right_shift(r, _U(32), out=t)
    np.multiply(x1, b1, out=w)
    w += np.bitwise_and(v, _M32, out=t)
    w += np.right_shift(q, _U(32), out=t)
    np.multiply(x0, b3, out=y)
    y += np.right_shift(v, _U(32), out=t)
    np.multiply(x1, b2, out=z)
    z += np.right_shift(w, _U(32), out=t)
    z += np.bitwise_and(y, _M32, out=t)
    np.multiply(x1, b3, out=p45)
    p45 += np.right_shift(y, _U(32), out=t)
    p45 += np.right_shift(z, _U(32), out=t)
    # limbs 0-3 of the product; limbs 4 and 5 are p45
    p0, p1, p2, p3 = s, q, w, z
    for limb in (p0, p1, p2, p3):
        limb &= _M32
    # P >> j with j = 118 + shift, from limbs 3 and up
    _take(_SHIFT, Ei, shift)
    np.left_shift(p45, _U(10), out=vr)
    vr |= np.right_shift(p3, _U(22), out=t)
    vr >>= shift
    # 2 mul, limb by limb
    d0, d1, d2, d3 = b0, b1, b2, b3
    for limb in (d0, d1, d2, d3):
        limb <<= _U(1)
    np.add(p0, d0, out=t)
    for p, d in ((p1, d1), (p2, d2), (p3, d3)):
        t >>= _U(32)
        t += p
        t += d
    _top(t, p45, shift, vp)
    # the difference limb by limb, each biased by 2^34 so that no borrow goes negative
    np.add(p0, _U(1 << 34), out=t)
    t -= d0
    for p, d in ((p1, d1), (p2, d2), (p3, d3)):
        t >>= _U(32)
        t += p
        t += _U((1 << 34) - 4)
        t -= d
    p45 -= _U(4)
    _top(t, p45, shift, vm)
    pow2 = M == 0
    if pow2.any():
        vm[pow2] = _VM_POW2[Ei[pow2]]
    return a, vr, vp, vm


def _top(t, p45, shift, out):
    """``out = (limbs 4-5 + carry, limb 3) >> j`` from ``t``, limb 3 with its carry above it."""
    np.right_shift(t, _U(32), out=out)
    out += p45
    out <<= _U(10)
    t &= _M32
    t >>= _U(22)
    out |= t
    out >>= shift


def _general_flags(E, Ei, M, a, vp):
    """Ryū's exactness flags of the bounds for doubles in [2^50, 2^131), and
    ``vp``'s decrement where the upper bound is exact and excluded;
    ``(None, None)`` when the block has none of them."""
    general = (E - _U(_GENERAL_LO)) <= _U(_GENERAL_HI - _GENERAL_LO)
    if not general.any():
        return None, None
    g = np.flatnonzero(general)
    Eg, mv = Ei[g], a[g]
    even = (mv & _U(4)) == 0
    mm_shift = (M[g] != 0) | (Eg <= 1)
    p5 = _U(5) ** _Q[Eg]
    small = Eg < 1077
    mod5 = mv % _U(5) == 0
    vr_exact = np.ones(a.size, dtype=bool)
    vm_exact = np.zeros(a.size, dtype=bool)
    vr_exact[g] = small | (mod5 & (mv % p5 == 0))
    below = mv - _U(1) - mm_shift.astype(np.uint64)
    vm_exact[g] = even & np.where(small, mm_shift, ~mod5 & (below % p5 == 0))
    drop = ~even & np.where(small, True, ~mod5 & ((mv + _U(2)) % p5 == 0))
    vp[g] -= drop.astype(np.uint64)
    return vr_exact, vm_exact


def _shortest(E, Ei, M, u, i, b):
    """Shortest digits (uint64) and decimal exponent (intp) of each finite double.

    ``u``, ``i`` and ``b`` are work arrays; the results are ``u[4]`` and
    ``i[1]``, and ``u[0]`` keeps ``4 m2``.
    """
    a, vr, vp, vm = _candidates(E, Ei, M, u)
    digits, hi, lo, scale, t = u[4:9]
    removed, exp = i[0], i[1]
    going, equal, tie = b
    vr_exact, vm_exact = _general_flags(E, Ei, M, a, vp)
    # a digit can go while the bounds still differ above it; once they agree
    # they agree for every longer removal, so the bounds are divided on
    # regardless and the rounds that removed a digit are counted
    np.floor_divide(vp, _TEN, out=hi)
    np.floor_divide(vm, _TEN, out=lo)
    np.greater(hi, lo, out=going)
    np.copyto(removed, going)
    for _ in range(2):
        hi //= _TEN
        lo //= _TEN
        np.greater(hi, lo, out=going)
        removed += going
    if going.any():
        # vp - vm <= 401 for every double, so after three rounds the bounds
        # differ by one: the interval holds hi alone, and one digit more can
        # go for each trailing zero of hi, at most 15 of them
        rest = np.flatnonzero(going)
        m = hi[rest]
        more = np.zeros(rest.size, dtype=np.intp)
        for step in (8, 4, 2, 1):
            q = m // _POW10[step]
            ok = q * _POW10[step] == m
            m = np.where(ok, q, m)
            np.add(more, step, out=more, where=ok)
        removed[rest] += more
    _take(_POW10, removed, scale)
    np.floor_divide(vr, scale, out=digits)
    # the removed tail against half a unit of the last digit kept: more rounds
    # up, and exactly half of an exact vr rounds to the even neighbour
    np.multiply(digits, scale, out=t)
    np.subtract(vr, t, out=t)
    _take(_HALF, removed, hi)
    np.greater_equal(t, hi, out=going)
    np.equal(t, hi, out=tie)
    if tie.any():
        _take(_TZ_MASK, Ei, t)
        t &= a
        tie &= t == _U(0)
        if vr_exact is not None:
            tie &= vr_exact
        np.bitwise_and(digits, _U(1), out=t)
        tie &= t == _U(0)
        going &= ~tie
    # or when the digits left would fall on the lower bound, outside the interval
    np.floor_divide(vm, scale, out=t)
    np.equal(digits, t, out=equal)
    going |= equal
    digits += going.view(np.uint8)
    _take(_E10, Ei, exp)
    exp += removed
    if vm_exact is not None and vm_exact.any():
        _exact_lower_bound(np.flatnonzero(vm_exact), a, vr, vm, removed, digits, exp, vr_exact)
    return digits, exp


def _exact_lower_bound(g, a, vr, vm, removed, out, exp, vr_exact):
    """Ryū's general case on cells ``g``, whose scaled lower bound ``vm`` is exact.

    There ``vm`` is a valid output when the mantissa is even, so its
    trailing zeros go too.  Updates ``out`` and ``exp`` in place.
    """
    r = removed[g]
    vrg, vmg = vr[g], vm[g]
    scale, below = _POW10[r], _POW10[np.maximum(r - 1, 0)]
    # vr is exact and its removed digits, all but the last, are zeros
    tail_zero = vr_exact[g] & (vrg % below == 0)
    vm_zero = vmg % scale == 0
    digits, vmg = vrg // scale, vmg // scale
    last = np.where(r > 0, vrg // below - digits * _TEN, _U(0))
    while True:
        more = vm_zero & (vmg % _TEN == 0)
        if not more.any():
            break
        tail_zero = np.where(more, tail_zero & (last == 0), tail_zero)
        last = np.where(more, digits % _TEN, last)
        digits = np.where(more, digits // _TEN, digits)
        vmg = np.where(more, vmg // _TEN, vmg)
        r = r + more
    last = np.where(tail_zero & (last == 5) & (digits % _U(2) == 0), _U(4), last)
    even = (a[g] & _U(4)) == 0
    up = ((digits == vmg) & (~even | ~vm_zero)) | (last >= 5)
    out[g] = digits + up.astype(np.uint64)
    exp[g] += r - removed[g]


def _layout(bits, E, M, digits, exp, u, i, b, words):
    """Draw each cell into its 32-byte slot, the four words of slot ``k`` in ``words[:, k]``."""
    negative, scale, D0, D1, D2, A, B, C, t = u[5:14]
    decpt, key = i[1], i[2]
    special, nan = b[0], b[1]
    np.equal(E, _U(0x7FF), out=special)
    np.left_shift(bits, _U(1), out=t)
    np.equal(t, _U(0), out=nan)
    special |= nan
    any_special = special.any()
    if any_special:
        # zeros print as "0.0": one digit 0 with decpt 1
        digits[special] = 0
        exp[special] = 0
    nd = np.searchsorted(_DIGIT_BOUNDS, digits, side="right")
    nd += 1
    np.add(exp, nd, out=decpt)
    decpt += _DECPT_OFF
    _take(_ROW_OFFSET, decpt, key)
    key += nd
    np.right_shift(bits, _U(63), out=negative)
    if any_special:
        inf_nan = E == _U(0x7FF)
        np.not_equal(M, _U(0), out=nan)
        nan &= inf_nan
        key[inf_nan] = _ND * nan[inf_nan]
        negative[nan] = 0
        decpt[inf_nan] = 1 + _DECPT_OFF
    # D0-D2: the 24-digit string of d, seven zeros, the top digit and two groups of 8
    d = digits
    d *= _take(_LAYOUT[12], key, scale)
    top, hi = A, B
    np.floor_divide(d, _U(10**16), out=top)
    _take(_DIGITS4_HIGH, top.view(np.int64), D0)
    D0 |= _DIGITS4[0]
    d -= np.multiply(top, _U(10**16), out=t)
    np.floor_divide(d, _U(10**8), out=hi)
    d -= np.multiply(hi, _U(10**8), out=t)
    _ascii8(hi, D1, t)
    _ascii8(d, D2, t)
    # word k: (D_k & A_k) | ((D << 8 bits)_k & B_k) | C_k, the masks gathered per word
    eight, carry = _U(8), _U(56)
    for k, (D, below) in enumerate(((D0, None), (D1, D0), (D2, D1))):
        out = words[k]
        np.left_shift(D, eight, out=t)
        if below is not None:
            t |= np.right_shift(below, carry, out=C)
        t &= _take(_LAYOUT[4 + k], key, B)
        np.bitwise_and(D, _take(_LAYOUT[k], key, A), out=out)
        out |= t
        out |= _take(_LAYOUT[8 + k], key, C)
    words[0] |= np.multiply(negative, _SIGN, out=t)
    out = words[3]
    np.right_shift(D2, carry, out=out)
    out &= _take(_LAYOUT[7], key, B)
    out |= _take(_LAYOUT[11], key, C)
    out |= _take(_EXPONENT, decpt, t)


def _ascii8(value, out, t):
    """``out`` = the 8 ASCII digits of ``value`` < 10^8, the first in the low byte.

    Overwrites ``value`` and the scratch array ``t``.
    """
    np.floor_divide(value, _U(10**4), out=t)
    _take(_DIGITS4, t.view(np.int64), out)
    value -= np.multiply(t, _U(10**4), out=t)
    out |= _take(_DIGITS4_HIGH, value.view(np.int64), t)


def _slot(text: bytes, at: int) -> int:
    """A 32-byte slot holding ``text`` from byte ``at``, as a little-endian integer."""
    return int.from_bytes(text, "little") << (8 * at)


def _words(slots: list) -> np.ndarray:
    """The four 64-bit words of each slot, one row per word."""
    return np.array([[s >> (64 * w) & (1 << 64) - 1 for s in slots] for w in range(4)], dtype=np.uint64)


# layout key = nd + _ND * row, row 0 for exponent text and decpt + 4 for
# positional decpt -3..16; nd = 0 keys are inf (row 0) and NaN (row 1)
_ND = 18
_DECPT_LO, _DECPT_HI = -3, 16


def _layout_tables():
    """Per layout key: digit masks ``A``, shifted-tail masks ``B``, fixed bytes ``C``, scale.

    A 24-digit zero-padded ASCII string ``D`` of the digits (times
    ``scale`` for integral positional text) fills bytes 0-23; a slot reads
    ``(D & A) | ((D << 8 bits) & B) | C``.  The point goes to byte
    ``p = 24 - F`` (``F`` digits after it), ``A`` keeps ``D``'s bytes from
    the first one printed up to ``p``, and ``B`` its bytes from ``p`` on,
    moved up one.
    """
    rows = 2 + _DECPT_HI - _DECPT_LO
    keep, tail, fixed, scale = ([0] * (_ND * rows) for _ in range(4))
    fixed[0], fixed[_ND] = _slot(b"inf", 21), _slot(b"NaN", 21)
    scale[:] = [1] * len(scale)
    for nd in range(1, _ND):
        for row in range(rows):
            decpt = row - 1 + _DECPT_LO
            key = nd + _ND * row
            text = b"."
            if row == 0:
                frac, first = nd - 1, 24 - nd
                if nd == 1:
                    text = b""
            elif decpt >= nd:
                frac, first, text, scale[key] = 0, 24 - decpt, b".0", 10 ** (decpt - nd)
            else:
                # "0." before the digits when decpt <= 0
                frac = nd - decpt
                first = min(24 - nd, 23 - frac)
            point = 24 - frac
            keep[key] = (1 << 8 * point) - (1 << 8 * first)
            tail[key] = (1 << 8 * 25) - (1 << 8 * (point + 1))
            fixed[key] = _slot(text, point)
    return np.concatenate((_words(keep), _words(tail), _words(fixed), [np.array(scale, dtype=np.uint64)]))


def _text_tables():
    """Per ``decpt + _DECPT_OFF``: the layout row's key offset, and the exponent
    text in bytes 26-30 of a slot (bytes 2-6 of its last word), 0 for positional text."""
    offset = np.zeros(_DECPT_OFF + 310, dtype=np.intp)
    exponent = np.zeros(_DECPT_OFF + 310, dtype=np.uint64)
    for decpt in range(-_DECPT_OFF, 310):
        if _DECPT_LO <= decpt <= _DECPT_HI:
            offset[decpt + _DECPT_OFF] = _ND * (decpt + 1 - _DECPT_LO)
        else:
            exponent[decpt + _DECPT_OFF] = _slot(b"e%+03d" % (decpt - 1), 2)
    return offset, exponent


def _digit_table():
    """ASCII of 0000..9999, the first digit in the low byte."""
    v = np.arange(10000, dtype=np.uint64)
    table = np.zeros(10000, dtype=np.uint64)
    for w in range(4):
        table |= (v // _U(10**w) % _TEN + _U(48)) << _U(8 * (3 - w))
    return table


# decpt runs from -323 (5e-324) to 309 (1.7976931348623157e+308)
_DECPT_OFF = 323
_LAYOUT = _layout_tables()
_ROW_OFFSET, _EXPONENT = _text_tables()
# 4 ASCII digits in the low and in the high half of a word
_DIGITS4 = _digit_table()
_DIGITS4_HIGH = _DIGITS4 << _U(32)
_SIGN = _U(ord("-"))
