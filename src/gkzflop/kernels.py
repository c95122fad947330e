"""Special-function kernels: polygamma stacks, log Gamma and 1/Gamma.

Every kernel takes a complex scalar or a complex array and works
elementwise; the contour integrand evaluates a whole vector of
quadrature nodes in one call.  A scalar argument gives the scalar-shaped
result (a complex number, or a 1-d coefficient array).

Method: the recurrence pushes each argument z to w = z + K with real
part >= 12 (>= 7 + order for high derivative orders), the K shift terms
taken together as one masked 2-d array; then the standard asymptotic
series in 1/w^2 with Bernoulli numbers through B_30.  Series terms and shift terms are multiplied and
added left to right (cumprod / cumsum), in the order of the one-point
recurrence, so an element's value does not depend on the batch it is
evaluated in.
"""

import functools
import math

import numpy as np

# Name of the kernel implementation, carried into benchmark records.
BACKEND = "numpy"

_BERNOULLI = np.array([
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730, 8553103.0 / 6,
    -23749461029.0 / 870, 8615841276005.0 / 14322,
])

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

_TWO_N = 2 * np.arange(1, _BERNOULLI.size + 1)
# complex copies: numpy multiplies complex by complex without a cast step
_BERNOULLI_C = _BERNOULLI.astype(complex)
_TWO_N_C = _TWO_N.astype(complex)
_LOG_GAMMA_DEN_C = (_TWO_N * (_TWO_N - 1)).astype(complex)

_BLOCK = 256    # elements per kernel call on long arrays; see _blockwise


@functools.lru_cache(maxsize=None)
def _polygamma_ratios(k):
    """Factors (2n+k)(2n+k+1)/((2n+1)(2n+2)) between the psi^(k) terms."""
    return np.array([(tn + k) * (tn + k + 1) / ((tn + 1) * (tn + 2))
                     for tn in _TWO_N.tolist()], dtype=complex)


def _flat(z):
    z = np.asarray(z, dtype=complex)
    return z.shape, z.reshape(-1)


def _shift_count(z, target):
    """Smallest K >= 0 with Re(z + K) >= target, per element (as floats)."""
    return np.maximum(np.ceil(target - z.real), 0.0)


def _chain(first, factors, size):
    """Running products first, first*f0, first*f0*f1, ... in `size` columns.

    factors broadcasts against the (len(first), size - 1) factor columns.
    """
    table = np.empty((first.size, size), dtype=complex)
    table[:, 0] = first
    table[:, 1:] = factors
    return np.cumprod(table, axis=1)


def _ordered_sum(terms, start=None):
    """start + terms[:, 0] + terms[:, 1] + ..., added left to right.

    terms is a temporary of the caller; it is overwritten.
    """
    if not terms.shape[1]:
        return np.zeros(terms.shape[0], dtype=complex) if start is None \
            else start
    if start is not None:
        terms[:, 0] += start
    return np.cumsum(terms, axis=1)[:, -1]


def _log_gamma_psi(z, orders):
    """log Gamma(z) and psi^(k)(z) for k < orders, for a 1-d array z.

    Both come from one recurrence shift z -> w = z + K, with Re w >= 12
    and >= 7 + orders, and from the asymptotic series at w.
    """
    count = _shift_count(z, max(12.0, 7.0 + orders))
    steps = np.arange(count.max(initial=0.0))
    nodes = z[:, None] + steps
    live = steps < count[:, None]
    w = z + count
    w2 = 1.0 / (w * w)
    log_w = np.log(w)
    n_terms = _BERNOULLI.size
    # log Gamma(z) = log Gamma(w) - sum_i log(z + i)
    shift = _ordered_sum(np.log(np.where(live, nodes, 1.0)))
    terms = _chain(1.0 / w, w2[:, None], n_terms)
    log_gamma = _ordered_sum(_BERNOULLI_C * terms / _LOG_GAMMA_DEN_C,
                             (w - 0.5) * log_w - w + _HALF_LOG_TWO_PI) - shift
    psi = np.empty((z.size, orders), dtype=complex)
    if not orders:
        return log_gamma, psi
    # psi^(k)(z) = psi^(k)(w) - (-1)^k k! sum_i (z+i)^-(k+1)
    inv = np.where(live, 1.0 / nodes, 0.0)
    p = inv
    for k in range(orders):
        psi[:, k] = _ordered_sum(
            -(float((-1) ** k * math.factorial(k)) * p))
        p = p * inv
    # k = 0: log w - 1/(2w) - sum B_2n / (2n w^2n)
    powers = _chain(w2, w2[:, None], n_terms)
    psi[:, 0] += _ordered_sum(-(_BERNOULLI_C * powers / _TWO_N_C),
                              log_w - 0.5 / w)
    # k >= 1: (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
    #                      + sum_n B_2n (2n+k-1)!/(2n)! w^(-2n-k) ]
    if orders > 1:
        factors = np.empty((z.size, 2 * n_terms - 2), dtype=complex)
        factors[:, 1::2] = w2[:, None]
    for k in range(1, orders):
        fk = float(math.factorial(k - 1))
        s = fk / w ** k + fk * k / (2.0 * w ** (k + 1))
        factors[:, 0::2] = _polygamma_ratios(k)[:-1]
        base = math.factorial(k + 1) / 2.0   # (2n+k-1)!/(2n)! at n = 1
        terms = _chain(base * w ** (-(2 + k)), factors,
                       2 * n_terms - 1)[:, 0::2]
        s = _ordered_sum(_BERNOULLI_C * terms, s)
        psi[:, k] += -s if (k - 1) % 2 == 1 else s
    return log_gamma, psi


def _log_gamma_flat(z):
    return _log_gamma_psi(z, 0)[0]


def _polygamma_flat(z, kmax):
    return _log_gamma_psi(z, kmax + 1)[1]


def _recip_gamma_flat(z):
    """1/Gamma(z) = z (z+1) ... (z+K-1) / Gamma(z+K) for a 1-d array z."""
    count = _shift_count(z, 0.5)
    steps = np.arange(count.max(initial=0.0))
    fac = np.where(steps < count[:, None], z[:, None] + steps, 1.0)
    return fac.prod(axis=1) * np.exp(-_log_gamma_flat(z + count))


def _recip_gamma_series_flat(z, kmax):
    """Taylor coefficients of 1/Gamma(z + u), shape (len(z), kmax + 1).

    Where Re z < 1/2 the argument is shifted right through the functional
    equation, 1/Gamma(z+u) = (z+u)...(z+K-1+u)/Gamma(z+K+u); the product
    is an exact polynomial in u, which keeps the log-derivative route away
    from the poles and from the cancellation region left of them.
    """
    count = _shift_count(z, 0.5)
    log_gamma, psi = _log_gamma_psi(z + count, kmax)
    out = np.empty((z.size, kmax + 1), dtype=complex)
    out[:, 0] = np.exp(-log_gamma)
    # f = exp(g), g' = -psi: f^(m) = sum_j C(m-1,j) g^(m-j) f^(j)
    g = -psi
    f = [out[:, 0]]
    for m in range(1, kmax + 1):
        f.append(sum(math.comb(m - 1, j) * g[:, m - j - 1] * f[j]
                     for j in range(m)))
        out[:, m] = f[m] / math.factorial(m)
    # multiply the polynomial (z+u)(z+1+u)... back in, factor by factor
    for j in range(int(count.max(initial=0.0)) - 1, -1, -1):
        times = (z + j)[:, None] * out
        times[:, 1:] += out[:, :-1]
        out = np.where((count > j)[:, None], times, out)
    return out


def _blockwise(kernel, z, *args):
    """kernel over z flattened, in blocks of _BLOCK elements.

    The kernels' 2-d temporaries grow with the batch (one column per
    shift step or series term); blocks cap them at about 100 kB each.
    Values do not depend on the block an element falls in.
    """
    shape, flat = _flat(z)
    if flat.size <= _BLOCK:
        out = kernel(flat, *args)
    else:
        out = np.concatenate([kernel(flat[i:i + _BLOCK], *args)
                              for i in range(0, flat.size, _BLOCK)])
    return out.reshape(shape + out.shape[1:])


def polygamma_stack(z, kmax):
    """psi^(k)(z) for k = 0..kmax, stacked along a new last axis."""
    return _blockwise(_polygamma_flat, z, int(kmax))


def log_gamma(z):
    """log Gamma(z), branch chosen so exp(log_gamma(z)) == Gamma(z)."""
    out = _blockwise(_log_gamma_flat, z)
    return complex(out) if out.ndim == 0 else out


def recip_gamma(z):
    """1/Gamma(z), elementwise; exactly zero at the poles of Gamma."""
    out = _blockwise(_recip_gamma_flat, z)
    return complex(out) if out.ndim == 0 else out


def recip_gamma_series(z, kmax):
    """Taylor coefficients of u -> 1/Gamma(z + u) through order kmax.

    The coefficients run along a new last axis: shape z.shape + (kmax+1,).
    """
    return _blockwise(_recip_gamma_series_flat, z, int(kmax))
