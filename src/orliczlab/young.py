"""Young-function calculus: evaluation, differentiation, inversion, convex conjugation, growth checks.

A Young function is an even, continuous, convex map with value 0 only at 0 and
phi(x)/x -> inf as x -> inf.  This module provides a small family of parametric
kinds, numeric Legendre-Fenchel conjugation, and grid-sampled certificates for
the classical growth conditions (doubling, submultiplicative, supermultiplicative,
ordering between two functions).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, ConfigError

__all__ = [
    "YoungFunction",
    "GridSpec",
    "ProductConvexityReport",
    "power",
    "scaled_power",
    "conjugate_power",
    "exp_type",
    "log_type",
    "from_config",
    "evaluate",
    "derivative",
    "inverse",
    "conjugate_closed_form",
    "conjugate_numeric",
    "check_delta2",
    "check_delta_prime",
    "check_nabla_prime",
    "check_ordering",
    "check_product_convexity",
    "young_inequality_check",
]

# Default tolerances and grids; chosen for double-precision headroom.
INVERSE_TOL = 1e-10
CONJUGATE_TOL = 1e-9
SAFETY_FACTOR = 1.01
POWER_KINDS = ("power", "scaled_power", "conjugate_power")  # the kinds that take p > 1
_KINDS = (*POWER_KINDS, "exp_type", "log_type")


@dataclass(frozen=True)
class YoungFunction:
    """A parametric convex function on the line, evaluated on |x|.

    Kinds:
      power            |x|**p, p > 1
      scaled_power     |x|**p / p, p > 1
      conjugate_power  the exact convex conjugate of |x|**p: (p-1) p**(-q) |y|**q
      exp_type         exp(|x|) - |x| - 1
      log_type         (1+|y|) log(1+|y|) - |y|   (conjugate of exp_type)
    """

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"young.kind: unknown kind {self.kind!r}")
        if self.kind in POWER_KINDS:
            if self.p is None or not self.p > 1:
                raise ConfigError(f"young.p: need p > 1 for kind {self.kind!r}, got {self.p}")

    def __call__(self, x):
        return evaluate(self, x)

    def inverse(self, t):
        return inverse(self, t)


def power(p: float) -> YoungFunction:
    return YoungFunction("power", p=float(p))


def scaled_power(p: float) -> YoungFunction:
    return YoungFunction("scaled_power", p=float(p))


def conjugate_power(p: float) -> YoungFunction:
    """The exact conjugate of |x|**p, kept symbolically so roundtrips stay closed-form."""
    return YoungFunction("conjugate_power", p=float(p))


def exp_type() -> YoungFunction:
    return YoungFunction("exp_type")


def log_type() -> YoungFunction:
    return YoungFunction("log_type")


def _as_float(value, where: str) -> float:
    # The int/float comparison is exact: it rejects NaN, infinities and too large ints.
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def from_config(fragment: dict) -> YoungFunction:
    """A YoungFunction from a fragment like {"kind": "scaled_power", "p": 2.0}; p is read for POWER_KINDS only."""
    if not isinstance(fragment, dict) or "kind" not in fragment:
        raise ConfigError("young: expected an object with a 'kind' field")
    kind = fragment["kind"]
    if kind in POWER_KINDS and "p" in fragment:
        return YoungFunction(kind, p=_as_float(fragment["p"], "young.p"))
    return YoungFunction(kind)


def _conj_power_params(p: float) -> tuple[float, float]:
    """Coefficient and exponent of the conjugate of |x|**p: c*|y|**q."""
    q = p / (p - 1.0)
    return (p - 1.0) * p ** (-q), q


def evaluate(phi: YoungFunction, x):
    """Evaluate phi at |x|.  Accepts scalars or ndarrays; exact for closed-form kinds."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = ax  # a new array (or a scalar), so the power kinds work it in place
    with np.errstate(over="ignore"):
        if phi.kind == "power":
            out **= phi.p
        elif phi.kind == "scaled_power":
            out **= phi.p
            out /= phi.p
        elif phi.kind == "conjugate_power":
            c, q = _conj_power_params(phi.p)
            out **= q
            out *= c
        elif phi.kind == "exp_type":
            out = np.expm1(ax)
            out -= ax
        else:  # log_type
            lg = np.log1p(ax)
            out = ax + 1.0
            out *= lg
            out -= ax
            # (1+y) log1p(y) overflows below y ~ 2.6e305, before the difference does.
            over = np.isinf(out) & (ax < math.inf)
            if np.any(over):
                out = np.where(over, ax * (lg - 1.0) + lg, out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def derivative(phi: YoungFunction, x):
    """phi' at |x|, the slope of phi on [0, inf); scalars or ndarrays, like evaluate.

    - power p x**(p-1), scaled_power x**(p-1), conjugate_power c q y**(q-1).
    - exp_type expm1(x), log_type log1p(y).
    """
    out = np.array(x, dtype=float)  # one copy, worked in place: the inverses pass large arrays
    np.abs(out, out=out)
    with np.errstate(over="ignore"):
        if phi.kind == "power":
            np.power(out, phi.p - 1.0, out=out)
            out *= phi.p
        elif phi.kind == "scaled_power":
            np.power(out, phi.p - 1.0, out=out)
        elif phi.kind == "conjugate_power":
            c, q = _conj_power_params(phi.p)
            np.power(out, q - 1.0, out=out)
            out *= c * q
        elif phi.kind == "exp_type":
            np.expm1(out, out=out)
        else:  # log_type
            np.log1p(out, out=out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def inverse(phi: YoungFunction, t):
    """Nonnegative x with |phi(x) - t| <= INVERSE_TOL * max(1, t), by the route of phi's kind.

    - power, scaled_power, conjugate_power: closed form.
    - exp_type, log_type: Newton's method from an upper bracket, iterated until
      the decreasing iterate stops moving, i.e. to machine resolution.  It meets
      INVERSE_TOL (near float max it comes within about 1e-13 * t) and lands
      within a few ulps of the root.  The passes run on one working set: while
      at least half its rows still move, a row that stopped is frozen in place
      (the next pass recomputes its same step, so it stays put), and once fewer
      than half move the set is compacted.  Each row sees the same operations
      in the same order either way, so its root is the same to the bit.

    Scalars and ndarrays of targets are both accepted, and each result is
    independent of the batch it came in.  A target of +inf maps to +inf: it
    arises when a modular overflows double precision, and the convention keeps
    downstream ratios conservatively small.  A solver that runs out of budget
    raises BracketFailure.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    if not np.all(tt >= 0):  # a NaN fails >= too
        raise ValueError("inverse target must be nonnegative and not nan")
    if phi.kind == "power":
        out = tt ** (1.0 / phi.p)
    elif phi.kind == "scaled_power":
        out = phi.p * tt
        out **= 1.0 / phi.p
    elif phi.kind == "conjugate_power":
        c, q = _conj_power_params(phi.p)
        out = tt / c
        out **= 1.0 / q
    else:
        out = _newton_inverse(phi, tt)
    return float(out) if scalar else out


# Newton's method for exp_type and log_type.  Both are convex and increasing on
# [0, inf), so Newton from an upper bracket decreases monotonically to the
# root, and an iterate that stops decreasing is at the root up to rounding.
# The step (phi(x) - t) / phi'(x) is taken as phi(x)/phi'(x) - t/phi'(x), which
# stays finite up to float max.  Near 0, expm1(x) - x and (1+y) log1p(y) - y
# cancel, so phi comes from its series in z there:
#   exp_type  z = x,          phi = e**z - 1 - z          = sum_{k>=2} z**k / k!
#   log_type  z = log1p(y),   phi = 1 + (z - 1) e**z      = sum_{k>=2} (k-1) z**k / k!
# For z <= 1/4 the terms past k = 15 fall below 1e-17 of the sum.
#
# The passes run on one working set of rows that carries over from pass to
# pass.  While at least half its rows still move, a row that stopped is frozen
# in place: it keeps its iterate, and the next pass recomputes the same step
# from the same inputs, so it stays put.  Once fewer than half move, the set is
# compacted to the moving rows; the loop ends when no row moves.  Each row sees
# the same operations in the same order as on its own, so its root is
# bit-identical whatever batch it came in and whenever it stopped.
_NEWTON_SERIES = {
    "exp_type": np.array([1.0 / math.factorial(k) for k in range(15, 1, -1)]),
    "log_type": np.array([(k - 1.0) / math.factorial(k) for k in range(15, 1, -1)]),
}
_SERIES_BELOW = 0.25
_NEWTON_ITERS = 64  # 9 passes, the last seeing no move, suffice from 5e-324 to float max
_LOG_MAX = math.log(sys.float_info.max)


def _newton_inverse(phi: YoungFunction, tt: np.ndarray) -> np.ndarray:
    t = np.ravel(tt)
    # Upper brackets, short of the root by rounding at most (the first step then stops):
    # exp_type: phi(x) >= x**2/2, and phi(log(2(1+t))) - t = 1 + t - log(2(1+t)) > 0;
    # log_type: phi(y) >= y**2/(2+y) as log1p(y) >= 2y/(2+y), which is >= t at y = t + sqrt(2t).
    root_t = math.sqrt(2.0) * np.sqrt(t)
    if phi.kind == "exp_type":
        x = np.minimum(np.minimum(root_t, math.log(2.0) + np.log1p(t)), _LOG_MAX)
    else:
        x = t + root_t
    # The working set: row indices, their iterates and targets, and scratch.
    todo = np.flatnonzero((t > 0.0) & (t < math.inf))
    xa, ta = x[todo], t[todo]
    step_buf, aux_buf = np.empty(todo.size), np.empty(todo.size)
    series = _NEWTON_SERIES[phi.kind]
    for _ in range(_NEWTON_ITERS):
        m = xa.size
        slope = derivative(phi, xa)
        step = step_buf[:m]  # phi(x)/phi'(x), then the step, then the next iterate
        if phi.kind == "exp_type":
            z = xa
            np.subtract(1.0, np.divide(xa, slope, out=step), out=step)
        else:
            z = slope
            np.subtract(np.add(xa, 1.0, out=step), np.divide(xa, slope, out=aux_buf[:m]), out=step)
        # Integer indices: a boolean gather costs several times nonzero + take.
        small = (z < _SERIES_BELOW).nonzero()[0]
        if small.size:
            zs = z[small]
            # np.polyval's Horner loop in place (its first step, 0*z + c0, is c0),
            # then z * series * (z / phi'), in that order.
            poly = np.full_like(zs, series[0])
            for c in series[1:]:
                poly *= zs
                poly += c
            poly *= zs
            poly *= np.divide(zs, slope[small], out=zs)
            step[small] = poly
        np.divide(ta, slope, out=slope)
        np.subtract(step, slope, out=step)
        nxt = np.subtract(xa, step, out=step)
        moving = nxt < xa
        n_moving = np.count_nonzero(moving)
        if n_moving and 2 * n_moving >= m:
            np.fmin(xa, nxt, out=xa)  # nxt where it is smaller, else (NaN too) xa
            continue
        x[todo] = xa
        if not n_moving:
            break
        keep = moving.nonzero()[0]
        todo, xa, ta = todo[keep], nxt[keep], ta[keep]
    else:
        raise BracketFailure(f"Newton inverse of {phi.kind} did not settle in {_NEWTON_ITERS} passes")
    x[t == math.inf] = math.inf
    return x.reshape(tt.shape)


_CONJUGATE_TABLE = {
    "scaled_power": lambda phi: scaled_power(phi.p / (phi.p - 1.0)),
    "power": lambda phi: conjugate_power(phi.p),
    "conjugate_power": lambda phi: power(phi.p),
    "exp_type": lambda phi: log_type(),
    "log_type": lambda phi: exp_type(),
}


def conjugate_closed_form(phi: YoungFunction) -> YoungFunction:
    """The complementary Young function; every kind has a closed form."""
    return _CONJUGATE_TABLE[phi.kind](phi)


def conjugate_numeric(phi: YoungFunction, y):
    """sup over x >= 0 of x*y - phi(x), by ternary search on the concave objective.

    Scalars and arrays of y are both accepted; a scalar gives a float.  Each row
    is solved on its own, so its result is independent of the batch it came in.
    Per row, the bracket [0, hi] doubles hi from 1 until the objective falls from
    hi to 2*hi.  That premise needs the maximiser below 2**512, the end of the
    512-doubling budget (for log_type, y below 512 log 2 ~ 354.9); a row past it,
    or a phi growing at most linearly, raises BracketFailure naming the first such
    y in input order.  The ternary search then narrows [lo, hi] until
    hi - lo <= CONJUGATE_TOL * max(1, lo), or for at most 2000 passes, keeping the
    best objective value it saw.  Every pass runs on all rows, and a row that has
    stopped keeps its values, so each row sees the same operations in the same
    order as on its own.  A negative y raises ValueError; y = 0 gives 0.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    ys = np.asarray(y, dtype=float)
    if np.any(ys < 0):
        raise ValueError("conjugate argument must be nonnegative")
    yy = ys.ravel()
    positive = yy != 0.0  # y = 0 rows never search and give 0

    def obj(x):
        v = x * yy - evaluate(phi, x)
        v[~np.isfinite(v)] = -math.inf
        return v

    with np.errstate(over="ignore", invalid="ignore"):
        hi, go = np.ones_like(yy), positive.copy()
        prev = obj(hi)
        for _ in range(512):
            if not go.any():
                break
            nxt = obj(2.0 * hi)
            hi[go] *= 2.0
            go &= ~(nxt < prev)
            prev = nxt
        if go.any():
            raise BracketFailure(
                f"no bracket for the conjugate of {phi.kind} at y = {yy[go.argmax()]:.17g}: the objective "
                "still rises at x = 2**512, where the doubling budget (512 doublings from x = 1) ends"
            )

        lo, best, go = np.zeros_like(yy), np.maximum(0.0, obj(hi)), positive.copy()
        for _ in range(2000):
            go &= ~(hi - lo <= CONJUGATE_TOL * np.maximum(1.0, lo))
            if not go.any():
                break
            third = (hi - lo) / 3.0
            m1, m2 = lo + third, hi - third
            v1, v2 = obj(m1), obj(m2)
            best = np.where(go, np.maximum(np.maximum(best, v1), v2), best)
            lo = np.where(go & ~(v1 > v2), m1, lo)  # ties narrow to (m1, m2)
            hi = np.where(go & ~(v1 < v2), m2, hi)
        out = np.where(positive, np.maximum(best, obj(0.5 * (lo + hi))), 0.0)
    return float(out[0]) if scalar else out.reshape(ys.shape)


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced sampling grid for growth-condition checks."""

    lo: float = 1e-3
    hi: float = 1e3
    n: int = 2048

    def points(self, n: int | None = None) -> np.ndarray:
        n = self.n if n is None else n
        return np.logspace(math.log10(self.lo), math.log10(self.hi), n)


def _stable_sup(sups: list[float]) -> bool:
    """Every sup finite, and each within 1 % of the one before."""
    if any(not math.isfinite(s) for s in sups):
        return False
    return all(abs(b - a) <= 0.01 * max(abs(a), 1e-300) for a, b in zip(sups, sups[1:]))


def _certify(sides, n: int) -> float | None:
    """The constant k = SAFETY_FACTOR * sup(lhs / rhs) of a sampled bound lhs <= k * rhs, or None.

    sides(m) gives the two sides on the grid of m points.  The sup is taken on
    n, 2n and 4n points; the ratio must be finite everywhere and its sup stable
    under both doublings (_stable_sup), and k must bound every point of the
    4n-point grid.
    """
    sups = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in (n, 2 * n, 4 * n):
            lhs, rhs = sides(m)
            ratio = lhs / rhs
            if not np.all(np.isfinite(ratio)):
                return None
            sups.append(float(ratio.max()))
    if not _stable_sup(sups):
        return None
    k = sups[-1] * SAFETY_FACTOR
    return k if np.all(lhs <= k * rhs) else None


def check_delta2(phi: YoungFunction) -> float | None:
    """Constant k of the doubling condition phi(2x) <= k*phi(x) on GridSpec(), or None.

    k is the grid supremum of the ratio (safety factor applied), accepted only
    when stable under two grid doublings (_certify).  The grid starts at
    grid.lo > 0, so behaviour at 0 is not probed.
    """
    grid = GridSpec()

    def sides(m: int):
        xs = grid.points(n=m)
        return evaluate(phi, 2.0 * xs), evaluate(phi, xs)

    return _certify(sides, grid.n)


def _pair_grid(grid: GridSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    xs = grid.points(n=n)
    return xs[:, None], xs[None, :]


def check_delta_prime(phi: YoungFunction) -> float | None:
    """Constant c of phi(x*y) <= c*phi(x)*phi(y) over the 2D grid of GridSpec(n=128), or None (_certify)."""
    grid = GridSpec(n=128)

    def sides(m: int):
        x, y = _pair_grid(grid, m)
        return evaluate(phi, x * y), evaluate(phi, x) * evaluate(phi, y)

    return _certify(sides, grid.n)


def check_nabla_prime(phi: YoungFunction) -> float | None:
    """Factor b of phi(b*x*y) >= phi(x)*phi(y) over the 2D grid of GridSpec(n=128), or None.

    The smallest b is found by bisection; the safety factor is applied.
    """
    grid = GridSpec(n=128)
    x, y = _pair_grid(grid, grid.n)
    rhs = evaluate(phi, x) * evaluate(phi, y)

    def holds(b: float) -> bool:
        with np.errstate(over="ignore"):
            return bool(np.all(evaluate(phi, b * x * y) >= rhs))

    hi = 1.0
    for _ in range(200):
        if holds(hi):
            break
        hi *= 2.0
    else:
        return None
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    b = hi * SAFETY_FACTOR
    if not holds(b):
        return None
    return b


def check_ordering(
    phi1: YoungFunction, phi2: YoungFunction, grid: GridSpec = GridSpec()
) -> float | None:
    """Smallest a on a log candidate grid with phi2(x) <= phi1(a*x) above grid.lo, or None.

    The winning candidate must survive extending the sample range upward twice;
    a constant that keeps drifting as the range grows certifies nothing.
    """
    candidates = np.logspace(-3, 3, 241)  # odd count so a = 1 is on the grid

    def smallest(hi: float) -> float | None:
        xs = GridSpec(grid.lo, hi, grid.n).points()
        lhs = evaluate(phi2, xs)
        for a in candidates:
            with np.errstate(over="ignore"):
                if np.all(lhs <= evaluate(phi1, a * xs)):
                    return float(a)
        return None

    found = [smallest(grid.hi * factor) for factor in (1.0, 4.0, 16.0)]
    if any(a is None for a in found) or len(set(found)) != 1:
        return None
    return found[0]


@dataclass(frozen=True)
class ProductConvexityReport:
    """Result of the mixed second-order determinant check on (x, y) -> phi(x)*psi(y)."""

    holds: bool
    worst_point: tuple[float, float]
    worst_value: float


def _derivatives_fd(phi: YoungFunction, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central finite differences for phi', phi'' with step proportional to x."""
    # Relative step 1e-3 keeps the O((h/x)^2) truncation error near 1e-6 while
    # staying far above the round-off floor for these smooth closed forms.
    h = xs * 1e-3 if xs[0] > 0 else np.full_like(xs, 1e-5)
    f0 = evaluate(phi, xs)
    fp = evaluate(phi, xs + h)
    fm = evaluate(phi, xs - h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    return f0, d1, d2


def check_product_convexity(phi: YoungFunction, psi: YoungFunction) -> ProductConvexityReport:
    """Check phi''(x) psi''(y) phi(x) psi(y) - (phi'(x) psi'(y))**2 >= 0 on GridSpec(n=256).

    This is the determinant part of joint convexity for the product function,
    up to 1e-8 of its largest magnitude.  Every kind is smooth away from 0, so
    central differences give the derivatives.  The report names the minimizing
    grid point either way.
    """
    xs = GridSpec(n=256).points()
    f, f1, f2 = _derivatives_fd(phi, xs)
    g, g1, g2 = _derivatives_fd(psi, xs)
    det = f2[:, None] * g2[None, :] * f[:, None] * g[None, :] - (f1[:, None] * g1[None, :]) ** 2
    i, j = np.unravel_index(np.argmin(det), det.shape)
    worst = float(det[i, j])
    scale = max(1.0, float(np.abs(det).max()))
    return ProductConvexityReport(worst >= -1e-8 * scale, (float(xs[i]), float(xs[j])), worst)


def young_inequality_check(
    phi: YoungFunction, psi: YoungFunction, samples: int = 10_000, seed: int = 0
) -> float:
    """Largest relative violation of x*y <= phi(x) + psi(y) over `samples` pairs drawn from [0, 100]^2.

    The violation is (x*y - phi(x) - psi(y)) / max(1, phi(x) + psi(y)).  For
    psi the conjugate of phi the inequality holds, so any positive result is
    rounding error; a NaN propagates.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 100.0, samples)
    ys = rng.uniform(0.0, 100.0, samples)
    rhs = evaluate(phi, xs) + evaluate(psi, ys)
    return float(np.max((xs * ys - rhs) / np.maximum(1.0, rhs)))
