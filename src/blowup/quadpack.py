"""Adaptive Gauss-Kronrod quadrature: a port of QUADPACK's QAGS.

``quad(f, a, b, epsabs, epsrel, limit)`` integrates f over a finite
interval [a, b] the way QUADPACK's DQAGSE does: a 21-point Gauss-Kronrod
rule (DQK21) on every subinterval, bisection of the subinterval with the
largest error estimate (kept in order by DQPSRT), and Wynn's epsilon
algorithm (DQELG) to extrapolate the sequence of sums when the error
concentrates on ever smaller intervals.  The arithmetic follows the
reference code statement by statement, so on IEEE doubles it returns the
same bits as the reference for the same integrand.

``quad_many(f, a, b, ...)`` returns ``[quad(f, ai, bi, ...)[0] ...]`` bit
for bit, but applies DQK21 to all intervals at once with numpy
elementwise arithmetic in the reference summation order (``qk21_many``):
first to every interval, then to both halves of those the first rule
does not settle.  DQAGSE's tests after that first bisection are taken for
all rows at once too; the few rows they do not settle, which need more
than one bisection, go through ``quad`` from the start.

The time map (``blowup.timemap``) integrates smooth integrands over finite
intervals and uses nothing else of QUADPACK; this module exists so that the
package needs no external integration library for it.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

__all__ = ["quad", "quad_many", "qk21_many"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# DQK21: abscissae of the 21-point Kronrod rule (xgk[1], xgk[3], ... are the
# 10-point Gauss abscissae), its weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208068074696, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
(_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9) = _XGK
(_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10) = _WGK
(_G0, _G1, _G2, _G3, _G4) = _WG

_MESSAGES = {
    1: "the maximum number of subdivisions has been reached",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the interval",
    4: "the algorithm does not converge; roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs, resasc).

    Unrolled: f at centr -+ hlgth * xgk[k] is u<k> / v<k>, and every sum
    accumulates in the reference order (the Gauss pairs k = 1, 3, .., 9
    first, then the Kronrod-only pairs k = 0, 2, .., 8).
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    d = hlgth * _X1
    u1, v1 = f(centr - d), f(centr + d)
    d = hlgth * _X3
    u3, v3 = f(centr - d), f(centr + d)
    d = hlgth * _X5
    u5, v5 = f(centr - d), f(centr + d)
    d = hlgth * _X7
    u7, v7 = f(centr - d), f(centr + d)
    d = hlgth * _X9
    u9, v9 = f(centr - d), f(centr + d)
    d = hlgth * _X0
    u0, v0 = f(centr - d), f(centr + d)
    d = hlgth * _X2
    u2, v2 = f(centr - d), f(centr + d)
    d = hlgth * _X4
    u4, v4 = f(centr - d), f(centr + d)
    d = hlgth * _X6
    u6, v6 = f(centr - d), f(centr + d)
    d = hlgth * _X8
    u8, v8 = f(centr - d), f(centr + d)
    s1, s3, s5, s7, s9 = u1 + v1, u3 + v3, u5 + v5, u7 + v7, u9 + v9
    s0, s2, s4, s6, s8 = u0 + v0, u2 + v2, u4 + v4, u6 + v6, u8 + v8
    resg = 0.0 + _G0 * s1 + _G1 * s3 + _G2 * s5 + _G3 * s7 + _G4 * s9
    resk = (_K10 * fc + _K1 * s1 + _K3 * s3 + _K5 * s5 + _K7 * s7 + _K9 * s9
            + _K0 * s0 + _K2 * s2 + _K4 * s4 + _K6 * s6 + _K8 * s8)
    resabs = (abs(_K10 * fc)
              + _K1 * (abs(u1) + abs(v1)) + _K3 * (abs(u3) + abs(v3))
              + _K5 * (abs(u5) + abs(v5)) + _K7 * (abs(u7) + abs(v7))
              + _K9 * (abs(u9) + abs(v9)) + _K0 * (abs(u0) + abs(v0))
              + _K2 * (abs(u2) + abs(v2)) + _K4 * (abs(u4) + abs(v4))
              + _K6 * (abs(u6) + abs(v6)) + _K8 * (abs(u8) + abs(v8)))
    h = resk * 0.5
    resasc = (_K10 * abs(fc - h)
              + _K0 * (abs(u0 - h) + abs(v0 - h)) + _K1 * (abs(u1 - h) + abs(v1 - h))
              + _K2 * (abs(u2 - h) + abs(v2 - h)) + _K3 * (abs(u3 - h) + abs(v3 - h))
              + _K4 * (abs(u4 - h) + abs(v4 - h)) + _K5 * (abs(u5 - h) + abs(v5 - h))
              + _K6 * (abs(u6 - h) + abs(v6 - h)) + _K7 * (abs(u7 - h) + abs(v7 - h))
              + _K8 * (abs(u8 - h) + abs(v8 - h)) + _K9 * (abs(u9 - h) + abs(v9 - h)))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """DQPSRT: keep iord ordered by decreasing error; returns (maxerr, errmax, nrmax).

    Indices are 1-based as in the reference; slot 0 of the lists is unused.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        i = ibeg
        inserted = False
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                inserted = True
                break
            iord[i - 1] = isucc
            i += 1
        if not inserted:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """DQELG, Wynn's epsilon algorithm: returns (n, result, abserr, nres).

    epstab and res3la are 1-based (slot 0 unused) and updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagse(f, a: float, b: float, epsabs: float, epsrel: float,
           limit: int) -> tuple[float, float, int]:
    """DQAGSE on a <= b: returns (result, abserr, ier)."""
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # 1-based work arrays, slot 0 unused
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    last = 1
    global_sum = False

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            global_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not global_sum:
        # set the final result and error estimate
        if abserr == _OFLOW:
            global_sum = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    global_sum = True
            elif abserr > errsum:
                global_sum = True
            elif area == 0.0:
                return result, abserr, ier - 1 if ier > 2 else ier
        if not global_sum:
            # test on divergence; errsum > 0 here, so area == 0 (where the
            # reference divides by zero) is a divergence too
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                if (area == 0.0 or 0.01 > result / area or result / area > 100.0
                        or errsum > abs(area)):
                    ier = 6
            return result, abserr, ier - 1 if ier > 2 else ier
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, ier - 1 if ier > 2 else ier


def _check_options(epsabs: float, epsrel: float, limit: int) -> None:
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit!r}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("tolerance too small: need epsabs > 0 or epsrel >= 50 eps")


def quad(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50) -> tuple[float, float]:
    """Integral of f over the finite interval [a, b]: (value, error estimate).

    Aims at |value - integral| <= max(epsabs, epsrel * |integral|) with at
    most ``limit`` subintervals.  When QUADPACK reports that it could not
    (its ier > 0), a RuntimeWarning names the reason and the best estimate is
    returned, as SciPy's quad does.  b < a integrates over [b, a]
    and negates.
    """
    a, b = float(a), float(b)
    _check_options(epsabs, epsrel, limit)
    flip = b < a
    if flip:
        a, b = b, a
    result, abserr, ier = _qagse(f, a, b, epsabs, epsrel, limit)
    if ier > 0:
        warnings.warn(f"quad on [{a!r}, {b!r}]: {_MESSAGES[ier]} "
                      f"(error estimate {abserr:.3g})", RuntimeWarning, stacklevel=2)
    return (-result if flip else result), abserr


# k of the abscissae xgk[k] in the order _qk21 evaluates f at centr -+ hlgth * xgk[k]
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_NODE_X = np.array([_XGK[k] for k in _ORDER])


@np.errstate(all="ignore")  # inf and nan arise quietly, as in float arithmetic
def qk21_many(f, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_qk21 on every interval [a[i], b[i]]: arrays (result, abserr, resabs, resasc).

    Row i equals ``_qk21(f, a[i], b[i])`` bit for bit: the integrand is the
    same scalar f, called once per node (or, if f has an attribute
    ``many``, ``f.many`` on the 1-D array of all nodes, which must return
    f's value and raise f's exception at each node), and every sum adds its
    terms one at a time in _qk21's order with numpy's elementwise +, -, *
    and /, which round as Python's float operators do.  The one power, ``** 1.5``,
    is taken per row with Python's float pow, and ``min``/``max`` follow
    Python's (the first argument unless the second compares smaller/larger,
    so NaN does not propagate).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    d = hlgth * _NODE_X[:, None]
    # node rows: centr, then u = centr - d and v = centr + d for each k of _ORDER
    nodes = np.empty((21,) + centr.shape)
    nodes[0] = centr
    nodes[1::2] = centr - d
    nodes[2::2] = centr + d
    flat = nodes.ravel()
    many = getattr(f, "many", None)
    fv = (np.fromiter(map(f, flat.tolist()), float, flat.size) if many is None
          else many(flat)).reshape(nodes.shape)
    fc = fv[0]
    pairs = fv[1::2] + fv[2::2]  # u + v, one row per k of _ORDER
    resg = 0.0  # the Gauss pairs k = 1, 3, .., 9 are the first five
    for weight, pair in zip(_WG, pairs[:5]):
        resg = resg + weight * pair
    resk = _K10 * fc
    for k, pair in zip(_ORDER, pairs):
        resk = resk + _WGK[k] * pair
    fa = np.abs(fv)
    resabs = np.abs(_K10 * fc)
    for k, pair in zip(_ORDER, fa[1::2] + fa[2::2]):
        resabs = resabs + _WGK[k] * pair
    da = np.abs(fv - resk * 0.5)
    da_pairs = da[1::2] + da[2::2]
    resasc = _K10 * da[0]
    for k in range(10):  # here in the order k = 0, 1, .., 9
        resasc = resasc + _WGK[k] * da_pairs[_ORDER.index(k)]
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    if scaled.any():
        ratio = 200.0 * abserr[scaled] / resasc[scaled]
        power = np.array([r ** 1.5 for r in ratio.tolist()])
        # min(1.0, power) as Python's min takes it: NaN gives 1.0
        abserr[scaled] = resasc[scaled] * np.where(power < 1.0, power, 1.0)
    floor = (_EPMACH * 50.0) * resabs
    raise_to_floor = (resabs > _UFLOW / (50.0 * _EPMACH)) & ~(abserr > floor)
    abserr = np.where(raise_to_floor, floor, abserr)
    return result, abserr, resabs, resasc


def quad_many(f, a, b, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
              limit: int = 50) -> np.ndarray:
    """``[quad(f, a[i], b[i], epsabs, epsrel, limit)[0] for i ...]`` as an array.

    The first DQK21 rule of every interval comes from one ``qk21_many``
    call.  Where DQAGSE would return that rule's result unchanged (ier 0
    and its first acceptance test passed) it is the answer.  Where DQAGSE
    would bisect, both halves of all those intervals come from a second
    ``qk21_many`` call, and DQAGSE's tests after its first bisection are
    taken row by row: where they end it with ier 0, the sum of the two
    halves is the answer.  Every other interval, reversed and non-finite
    ones included, is integrated by ``quad`` from the start, with quad's
    warnings.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_options(epsabs, epsrel, limit)
    result, abserr, defabs, resabs = qk21_many(f, a, b)
    # _qagse's tests on its first rule, row by row; errbnd = max(epsabs, ...)
    bound = epsrel * np.abs(result)
    errbnd = np.where(bound > epsabs, bound, epsabs)
    roundoff = (abserr <= 100.0 * _EPMACH * defabs) & (abserr > errbnd)
    # no roundoff row passes this test
    first = ((abserr <= errbnd) & (abserr != resabs)) | (abserr == 0.0)
    done = first & np.isfinite(result) & np.isfinite(abserr) & (limit > 1)
    out = np.where(done, result, 0.0)
    rows = np.flatnonzero(~first & ~roundoff & (a <= b) & np.isfinite(a) & np.isfinite(b)
                          & (limit > 2))
    if rows.size:
        lo, hi = a[rows], b[rows]
        mid = 0.5 * (lo + hi)  # where _qagse bisects [lo, hi]
        halves = qk21_many(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        (area1, area2), (error1, error2) = (np.split(r, 2) for r in halves[:2])
        # errsum and area as _qagse updates them at its first bisection
        whole, err = result[rows], abserr[rows]
        area = (whole + (area1 + area2)) - whole
        errsum = (err + (error1 + error2)) - err
        bound = epsrel * np.abs(area)
        tiny = (np.maximum(np.abs(lo), np.abs(hi))
                <= (1.0 + 100.0 * _EPMACH) * (np.abs(mid) + 1000.0 * _UFLOW))  # ier 4
        settled = (errsum <= np.where(bound > epsabs, bound, epsabs)) & ~tiny
        # _qagse sums rlist from 0.0; the order of the halves does not matter
        out[rows[settled]] = (0.0 + area1[settled]) + area2[settled]
        done[rows[settled]] = True
    for i in np.flatnonzero(~done).tolist():
        out[i] = quad(f, float(a[i]), float(b[i]), epsabs, epsrel, limit)[0]
    return out
