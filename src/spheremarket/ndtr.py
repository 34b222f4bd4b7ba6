"""Scalar ports of the Cephes error function and normal CDF.

``erfc``, ``ndtr`` and their shared helper ``erf`` follow Moshier's
Cephes ``ndtr.c`` (the code behind ``scipy.special.erf``, ``erfc`` and
``ndtr`` on real doubles): the same rational coefficient tables, the same
Horner evaluation order and the same branches, with ``math.exp``.  They
return scipy's doubles bit for bit, without importing ``scipy.special``.
"""

from __future__ import annotations

import math

MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x*x) underflows below -MAXLOG
SQRT1_2 = 7.07106781186547524401e-1

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= |x| < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x^2) R(x) / S(x) for |x| >= 8
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """The error function 2/sqrt(pi) * integral of exp(-t^2) over [0, x]."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if x > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def erfc(a: float) -> float:
    """The complementary error function 1 - erf(a), accurate in the tails."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z >= -MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p, q = _polevl(x, _P), _p1evl(x, _Q)
        else:
            p, q = _polevl(x, _R), _p1evl(x, _S)
        y = (z * p) / q
        if a < 0.0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0.0 else 0.0  # underflow


def ndtr(a: float) -> float:
    """The standard normal CDF: the probability mass below a."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = a * SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0.0 else y
