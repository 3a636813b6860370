"""80-digit mpmath references for the bound's scalars and the sharpness
witnesses' closed forms, each taken from its defining formula at the exact
value of every float argument. Import this module after
pytest.importorskip("mpmath")."""
import mpmath

DIGITS = 80


def bound_scalars(D, d, v):
    """(r_V, kappa, M1, M2) at a point (D, d, v) of Omega, None where a
    quantity is not defined. r_V = v tan(arctan(2v / (D - d)) / 2). Below
    v_b = sqrt(d (D - d)), kappa = 2v / d up to v = sqrt(d (D - 2d)) / 2 and
    (v D + v_b sqrt((D - 2d)^2 + 4v^2)) / (2 (v_b^2 - v^2)) above it, and
    M1 = tan(arctan(kappa) / 2); at v_b, M1 = 1. From v_b on, M2 =
    sqrt(1 + 2 (v^2 - sqrt((d D - v^2)((D - d) D - v^2))) / D^2)."""
    with mpmath.workdps(DIGITS):
        D, d, v = (mpmath.mpf(x) for x in (D, d, v))
        r_v = v * mpmath.tan(mpmath.atan(2 * v / (D - d)) / 2)
        vb2 = d * (D - d)
        kappa = m1 = m2 = None
        if v * v < vb2:
            if 4 * v * v <= d * (D - 2 * d):
                kappa = 2 * v / d
            else:
                root = mpmath.sqrt((D - 2 * d) ** 2 + 4 * v * v)
                kappa = (v * D + mpmath.sqrt(vb2) * root) / (2 * (vb2 - v * v))
            m1 = mpmath.tan(mpmath.atan(kappa) / 2)
        elif v * v == vb2:
            m1 = mpmath.mpf(1)
        if v * v >= vb2:
            root = mpmath.sqrt((d * D - v * v) * ((D - d) * D - v * v))
            m2 = mpmath.sqrt(1 + 2 * (v * v - root) / (D * D))
        return r_v, kappa, m1, m2


def outer(gamma, a, b):
    """(z0, phi_max, t) of the outer rank-one witness, for 0 < a < gamma:
    z0 = h - sqrt(h^2 - gamma^2) with h = (2 gamma^2 - b^2) / (2a), the
    maximizer of phi(z) = (b^2 + 2z(a - z)) / (gamma^2 - z^2); phi(z0); and
    the weight t = (b^2 (gamma - z0) + (gamma^2 - z0^2)(a - z0)) /
    (2 gamma b^2). At and past the upper edge b = sqrt(2 gamma (gamma - a)),
    where h <= gamma, the limits at the edge: gamma, 2 - a / gamma and 0."""
    with mpmath.workdps(DIGITS):
        g, a, b = (mpmath.mpf(x) for x in (gamma, a, b))
        h = (2 * g * g - b * b) / (2 * a)
        if h <= g:
            return g, 2 - a / g, mpmath.mpf(0)
        z = h - mpmath.sqrt(h * h - g * g)
        phi = (b * b + 2 * z * (a - z)) / (g * g - z * z)
        t = (b * b * (g - z) + (g * g - z * z) * (a - z)) / (2 * g * b * b)
        return z, phi, t


def beta(gamma, a, b):
    """The circulant witness' beta, the positive root of
    a beta^2 + 2 gamma b beta - a c = 0 with c = gamma^2 - a^2 - b^2, in the
    form a c / (sqrt(gamma^2 b^2 + a^2 c) + gamma b), which does not cancel
    where a is far below gamma."""
    with mpmath.workdps(DIGITS):
        g, a, b = (mpmath.mpf(x) for x in (gamma, a, b))
        c = g * g - a * a - b * b
        return a * c / (mpmath.sqrt(g * g * b * b + a * a * c) + g * b)


def rel_err(x, ref):
    """|x - ref| / |ref| at the references' precision."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(x) - ref) / abs(ref))
