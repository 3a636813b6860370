"""80-digit mpmath references for the sharpness witnesses' closed forms,
each taken from its defining formula at the exact value of every float
argument. Import this module after pytest.importorskip("mpmath")."""
import mpmath

DIGITS = 80


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
