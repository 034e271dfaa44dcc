"""The time-map inverse written as two plain Newton loops, one per regime.

``blowup.timemap.time_map_inverse`` runs the same iteration as a
generator, answered point by point for a float z and round by round
for an array; both must return these bits, and raise the same
exception with the same message, for every z.  The loops call the
package's own forward map and helpers.
"""

import math

from blowup.timemap import (
    INVERSION_CAP,
    Profile,
    _SPLIT,
    _head,
    _head_integrand,
    _time_map_deriv,
    _z_split,
    time_map,
)


def time_map_inverse(profile: Profile, z: float) -> float:
    """Solve T(y) = z for y >= 1, with |T(y) - z| <= 1e-12 * L_p.

    Valid for 0 <= z <= (1 - 1e-9) * L_p; beyond the cap the inverse diverges
    and a ValueError is raised.  Uses a verified bracket plus Newton steps
    safeguarded by bisection; near L_p the bracket comes from the tail
    asymptotics T(y) ~ L_p - (2/(p-1)) y^(-(p-1)/2).
    """
    p, L = profile.p, profile.L_p
    z = float(z)
    if math.isnan(z) or z < 0.0:
        raise ValueError(f"time map inverse requires z >= 0, got {z!r}")
    if z > (1.0 - INVERSION_CAP) * L:
        raise ValueError(
            f"z = {z!r} exceeds the inversion cap (1 - 1e-9) * L_p = {(1.0 - INVERSION_CAP) * L!r}; "
            "the profile blows up at z = L_p"
        )
    if z == 0.0:
        return 1.0

    if z <= _z_split(p):
        # invert in w-space where G(w) = T(1 + w^2) has a smooth nonzero slope
        g = _head_integrand(p)
        lo, hi = 0.0, math.sqrt(_SPLIT - 1.0)
        w = min(hi, z * math.sqrt(p + 1.0) / 2.0)  # small-z asymptote
        f_of = lambda w_: _head(p, 1.0 + w_ * w_) - z
        flo = -z
        for _ in range(100):
            fw = f_of(w)
            if abs(fw) <= 0.5e-12 * L:
                break
            if fw * flo > 0.0:
                lo, flo = w, fw
            else:
                hi = w
            step = fw / g(w) if g(w) > 0.0 else 0.0
            w_new = w - step
            if not (lo < w_new < hi):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) <= 1e-16 * max(1.0, w):
                w = w_new
                break
            w = w_new
        return 1.0 + w * w

    # Tail regime: y* >= Y0 because the tail integrand is >= 1.
    b = 2.0 / (p - 1.0)
    try:
        y0 = (b / (L - z)) ** b
    except OverflowError:
        raise OverflowError(f"time map inverse at z = {z!r} (p = {p!r}) exceeds the largest double") from None
    lo = max(_SPLIT, y0)
    hi = max(1e3 * y0, 2.0 * lo)
    flo = time_map(profile, lo) - z
    if flo > 0.0:
        # near p = 1 rounding can put T(y0) above z; T(_SPLIT) < z here
        lo, flo = _SPLIT, _z_split(p) - z
    fhi = time_map(profile, hi) - z
    expand = 0
    while fhi < 0.0 and expand < 60:
        lo, flo = hi, fhi
        hi *= 10.0
        fhi = time_map(profile, hi) - z
        expand += 1
    if flo > 0.0 or fhi < 0.0:
        raise RuntimeError(f"failed to bracket time-map inverse at z={z!r}")
    y = 0.5 * (lo + hi)
    for _ in range(200):
        fy = time_map(profile, y) - z
        if abs(fy) <= 0.5e-12 * L:
            return y
        if fy < 0.0:
            lo = y
        else:
            hi = y
        y_new = y - fy / _time_map_deriv(p, y)
        if not (lo < y_new < hi):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 4e-16 * y:
            return y_new
        y = y_new
    return y
