"""Special-function kernels: 1/Gamma and its Taylor series.

Every kernel takes a complex scalar or a complex array and works
elementwise; the contour integrand evaluates a whole vector of
quadrature nodes in one call.  A scalar argument gives the scalar-shaped
result (a complex number, or a 1-d coefficient array).

Method.  One core, _stirling, behind recip_gamma_series; recip_gamma
reads the series at order 0.

* Where Re z < 1/2, 1/Gamma(z+u) = (z+u)(z+1+u)...(z+K-1+u)/Gamma(w+u)
  with w = z + K and Re w >= 1/2.  This product stays an exact
  polynomial in u, and it stops at Re w >= 1/2: its factors vanish
  exactly at the poles, so 1/Gamma is exactly zero there, and what
  follows never meets a pole or the cancellation left of the poles.
* From w on only values are needed, so the recurrence goes on as a
  product: W = w + K' with Re W >= R = 7 (K' <= 7).  The factors w,
  w+1, ... form one masked table; its product replaces a sum of logs,
  and the psi^(k) corrections are power sums of its reciprocals.
* At W, Stirling's series for log Gamma and psi^(k) runs through B_26
  (13 terms in 1/W^2), all series in one Horner pass.  At |W| >= 7 the
  first omitted log Gamma term is below 1e-18 (Spira, Math. Comp. 25,
  1971).  The Taylor coefficients of 1/Gamma(w+u) then follow from the
  psi^(k) by the exp recursion.

Every step works elementwise or adds rows in a fixed order, so a value
does not depend on the batch it is evaluated in.  Long batches go to the
core in blocks of _BLOCK = 2048 arguments: a block pays a fixed cost of
some fifty numpy calls, about what 200 arguments cost at kmax 1, and
oracle on a1 and conifold at two eps sends 13 blocks (34 of 512).

Ladder.  recip_gamma_ladder reaches 1/Gamma(w - m + u) from the series
at an anchor w by m steps of the functional equation 1/Gamma(v - 1 + u)
= (v - 1 + u) / Gamma(v + u), on Taylor coefficients: c_m = (w - m) c_{m-1}
+ u c_{m-1}.  Its callers (lines, residue circles and series terms,
through DeformationRing.recip_gamma) run Stirling once per anchor and
read the integer translates w - m off it: the deep, negative arguments
that would pay the longest multiply-back loop here.  A step where w - m
is exactly zero keeps the exact zero at the pole of Gamma.  From w - 1
on the series at w, a request leaves out the factor w - 1 + u (the dual
series' divided coefficient); a series term's coefficients past m of
about 170 are scaled by an exact power of two per row.  A scaled ladder
steps unscaled and tests finiteness once, on its deepest level: a value
that is not finite stays so, so a finite deepest level means that no
step needed scaling, and only a failed test steps again, level by level.
"""

import functools
import math
import operator

import numpy as np

# Name of the kernel implementation, carried into benchmark records.
BACKEND = "numpy"

_R = 7.0        # Stirling's series is summed at Re W >= _R
_STEPS = np.arange(_R)[:, None]     # from Re w >= 1/2, K <= 7 steps
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730, 8553103.0 / 6,
]   # B_2, ..., B_26
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

_BLOCK = 2048  # elements per core call on long arrays; see _blockwise


@functools.lru_cache(maxsize=None)
def _horner(orders):
    """Stirling coefficients of log Gamma and psi^(k), k < max(orders, 1).

    The coefficients of x^n, x = 1/W^2, n = 1..13: B_2n / (2n (2n-1)) for
    log Gamma, B_2n / 2n for psi, B_2n (2n+k-1)! / (2n)! for psi^(k).
    For Horner's rule in y = x^2, row i holds those of y^(6-i): first of
    the odd powers of x, then of the even ones.  psi's series stays at
    orders = 0: numpy may round a complex product over a (1, n) array
    differently from the same row of a taller one.
    """
    cols = [[b / (2 * n * (2 * n - 1)) for n, b in enumerate(_BERNOULLI, 1)]]
    for k in range(max(orders, 1)):
        cols.append([b * (math.factorial(2 * n + k - 1)
                          / math.factorial(2 * n) if k else 1.0 / (2 * n))
                     for n, b in enumerate(_BERNOULLI, 1)])
    by_power = np.array(cols, dtype=complex).T     # row n - 1: x^n
    out = np.zeros((7, 2, len(cols), 1), dtype=complex)
    out[:, 0, :, 0] = by_power[0::2][::-1]
    out[1:, 1, :, 0] = by_power[1::2][::-1]
    out.flags.writeable = False
    return out


def _shift_count(z, target):
    """Smallest K >= 0 with Re(z + K) >= target, per element (as floats)."""
    return np.maximum(np.ceil(target - z.real), 0.0)


def _subtract_power_sums(psi, recip):
    """psi^(k) -= (-1)^k k! sum_i recip[i]^(k+1) for each row k of psi.

    The rows of recip are summed through a float view: its last axis has
    length >= 2, so numpy adds the rows in order, whatever the batch.
    """
    powers = np.empty((len(recip),) + psi.shape, dtype=complex)
    p = recip
    for k in range(len(psi)):
        powers[:, k] = p
        p = p * recip
    sums = np.add.reduce(powers.view(float), axis=0).view(complex)
    for k, s in enumerate(sums):
        psi[k] = psi[k] - (-1) ** k * math.factorial(k) * s


def _stirling(w, orders):
    """P, log Gamma(W) and psi^(k)(w) for k < orders, for Re w >= 1/2.

    W = w + K with the least K that puts Re W >= _R, and P = w (w+1) ...
    (w+K-1): Gamma(w) = Gamma(W) / P.  w is 1-d; psi stacks along axis 0.
    """
    count = _shift_count(w, _R)
    live = _STEPS < count
    table = np.where(live, w + _STEPS, 1.0)     # 1 past each K
    W = w + count
    inv_w = 1.0 / W
    x = inv_w * inv_w
    y = x * x
    horner = _horner(orders)
    tails = horner[0]
    for c in horner[1:]:
        tails = tails * y + c
    tails = tails[0] * x + tails[1] * y         # sum_n c_n x^n per series
    log_w = np.log(W)
    log_gamma = (W - 0.5) * log_w - W + _HALF_LOG_TWO_PI + tails[0] * W
    # psi^(k)(W) = (-1)^(k-1) W^-k ((k-1)! + k!/(2W) + tail), + log W at
    # k = 0; then psi^(k)(w) = psi^(k)(W) - (-1)^k k! sum_i (w+i)^-(k+1)
    psi = np.empty((orders, w.size), dtype=complex)
    sign_power = -1.0                           # (-1)^(k-1) W^-k
    for k in range(orders):
        bracket = (math.factorial(k - 1) if k else 0.0) \
            + (0.5 * math.factorial(k)) * inv_w + tails[k + 1]
        psi[k] = bracket * sign_power if k else log_w - bracket
        sign_power = sign_power * -inv_w
    if orders:
        _subtract_power_sums(psi, live / table)
    return functools.reduce(operator.mul, table), log_gamma, psi


def _recip_gamma_series_flat(z, kmax):
    """Taylor coefficients of 1/Gamma(z + u), shape (len(z), kmax + 1)."""
    # a z far out on the left overflows exp to inf, and the recurrence
    # turns that into NaN; a non-finite z gives a NaN row: the values say
    # so, and the callers' finiteness gates raise NonFiniteValue, so numpy
    # need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        count = _shift_count(z, 0.5)
        scale, log_gamma, psi = _stirling(z + count, kmax)
        out = np.empty((z.size, kmax + 1), dtype=complex)
        out[:, 0] = scale * np.exp(-log_gamma)
        # f = exp(g), g' = -psi: f^(m) = sum_j C(m-1,j) g^(m-j) f^(j)
        g = -psi
        f = [out[:, 0]]
        for m in range(1, kmax + 1):
            f.append(sum(math.comb(m - 1, j) * g[m - j - 1] * f[j]
                         for j in range(m)))
            out[:, m] = f[m] / math.factorial(m)
        # multiply the polynomial (z+u)(z+1+u)... back in, factor by
        # factor; a row with K <= j keeps its value, and while every row
        # is live no mask is needed.  The bound is the largest finite K:
        # a non-finite z has a NaN or infinite K
        bound = count.max(initial=0.0, where=np.isfinite(count))
        for j in range(int(bound) - 1, -1, -1):
            times = (z + j)[:, None] * out
            times[:, 1:] += out[:, :-1]
            live = count > j
            out = times if live.all() else np.where(live[:, None], times, out)
    return out


def _blockwise(kernel, z, *args):
    """kernel over z flattened, in blocks of _BLOCK elements.

    Blocks cap the core's temporaries (a row per shift step or series)
    at about 240 kB each.  Values do not depend on the block.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    if flat.size <= _BLOCK:
        out = kernel(flat, *args)
    else:
        out = np.concatenate([kernel(flat[i:i + _BLOCK], *args)
                              for i in range(0, flat.size, _BLOCK)])
    return out.reshape(z.shape + out.shape[1:])


def recip_gamma(z):
    """1/Gamma(z), elementwise; exactly zero at the poles of Gamma."""
    out = recip_gamma_series(z, 0)[..., 0]
    return complex(out) if out.ndim == 0 else out


def recip_gamma_series(z, kmax):
    """Taylor coefficients of u -> 1/Gamma(z + u) through order kmax.

    The coefficients run along a new last axis: shape z.shape + (kmax+1,).
    """
    return _blockwise(_recip_gamma_series_flat, z, int(kmax))


def recip_gamma_ladder(c, w, slots, depths, axis=0, scaled=False, shift=0):
    """Coefficients of prod_{k=1}^{depth} (w[slot] - k + u) f(u), read off c.

    w + shift holds anchors along c's axis axis (w broadcast to
    c.shape[:-1], shift to c) and c, per anchor, the Taylor coefficients
    of f; with c = recip_gamma_series(w + shift, kmax) a request is
    1/Gamma(w[slot] + shift - depth + u), on factors (w - k) + shift that
    keep a small shift's digits.  slots and depths are int arrays of one
    shape P, a request each: the anchor w[slot] laddered depth >= 0
    steps down, in its place: the result has shape c.shape[:axis] + P +
    c.shape[axis + 1:].  Every anchor steps down to the deepest request,
    each step two array operations on the whole of c, and the requests
    are read off the levels asked for; a value depends on its anchor and
    its depth alone.
    scaled also returns a power-of-two exponent e per request: where a
    step would leave a row of c non-finite, that row is first scaled to
    a largest modulus in [1/2, 1), exactly, and the value is the
    coefficients times 2**e.  A row that stays in the float range keeps
    e = 0 and its unscaled bits.  The steps run unscaled first, and
    finiteness is tested once, on the deepest level; only where that
    test fails do they run again, each level tested and scaled.
    """
    slots = np.asarray(slots, dtype=int)
    depths = np.asarray(depths, dtype=int)
    wanted = set(depths.reshape(-1).tolist())
    levels = sorted(wanted)
    if not levels[-1]:
        out = np.take(c, slots, axis=axis)
        return (out, np.zeros(out.shape[:-1], dtype=int)) if scaled else out
    w = np.asarray(w, dtype=complex)[..., None]
    # a deep step may overflow to inf, and inf to NaN: the values say so,
    # and the callers' finiteness gates raise NonFiniteValue
    with np.errstate(over="ignore", invalid="ignore"):
        # every factor at once, then c_m = (w - m + shift + u) c_{m-1}
        factors = (w - np.arange(1, levels[-1] + 1).reshape(
            (-1,) + (1,) * c.ndim)) + shift
        kept, exps = _ladder_levels(c, factors, wanted, False)
        # a value that is not finite stays so down the ladder: with a
        # finite deepest level no step needed scaling
        if scaled and not np.isfinite(kept[-1]).all():
            kept, exps = _ladder_levels(c, factors, wanted, True)
    # the levels before the anchors' axis: a (level, slot) pair per request
    pick = (slice(None),) * axis + (np.searchsorted(levels, depths), slots)
    out = np.stack(kept, axis=axis)[pick]
    if not scaled:
        return out
    # exponents only grow: with none at the deepest level there are none
    return out, (np.stack(exps, axis=axis)[pick] if exps[-1].any()
                 else np.zeros(out.shape[:-1], dtype=int))


def _ladder_levels(c, factors, wanted, scaled):
    """The levels m in wanted of c_m = (factors[m - 1] + u) c_{m-1}.

    Returns the levels, ascending, and their power-of-two exponents: with
    scaled, a row of c that a step would leave non-finite is first scaled
    to a largest modulus in [1/2, 1), exactly; without, every exponent
    is 0.
    """
    e = np.zeros(c.shape[:-1], dtype=int)
    kept, exps = [c] * (0 in wanted), [e] * (0 in wanted)
    for m, factor in enumerate(factors, 1):
        step = factor * c
        step[..., 1:] += c[..., :-1]
        if scaled and not np.isfinite(step).all():
            k = np.where(np.isfinite(step).all(axis=-1), 0,
                         np.frexp(np.abs(c).max(axis=-1))[1])
            c, e = ldexp(c, -k), e + k
            step = factor * c
            step[..., 1:] += c[..., :-1]
        c = step
        if m in wanted:
            kept.append(c)
            exps.append(e)
    return kept, exps


def ldexp(coords, e):
    """coords * 2**e for complex coords, e an int array of the shape of
    coords without its last axis: row by row, exact where the result is
    a normal float."""
    coords = np.ascontiguousarray(coords)
    return np.ldexp(coords.view(float), e[..., None]).view(complex)
