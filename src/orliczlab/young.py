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
from typing import Callable

import numpy as np

from .errors import BracketFailure, ConfigError

__all__ = [
    "YoungFunction",
    "Workspace",
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


@dataclass(frozen=True)
class YoungFunction:
    """A parametric convex function on the line, evaluated on |x|; its kind
    names its row of _KINDS, and p is given exactly when the row takes one."""

    kind: str
    p: float | None = None
    row = property(lambda self: _KINDS[self.kind])  # the kind's row of _KINDS, not a field

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:  # an unhashable kind is unknown too
            raise ConfigError(f"young.kind: unknown kind {self.kind!r}")
        if self.row.takes_p != (self.p is not None) or self.p is not None and not self.p > 1:
            raise ConfigError(f"young.p: {self.kind!r} takes {'p > 1' if self.row.takes_p else 'no p'}, got {self.p}")

    def __call__(self, x, out=None, work=None):
        return evaluate(self, x, out, work)

    def inverse(self, t, work=None):
        return inverse(self, t, work)


class Workspace:
    """Scratch arrays lent by name to the batch passes of one caller.

    array(name, shape) returns the named array at that shape, allocated the
    first time the name is asked for and reused after, so a caller whose
    first batch is its largest (a search's row range, whose first chunk is
    its largest) allocates nothing after it; a larger request allocates
    again.  The passes that borrow one are sequential and each name is held
    by one pass at a time: a caller's own names ("atoms" for its (..., n)
    values, say) are free while a kernel it calls runs.  The kernels share
    the name "scratch" (evaluate's blocks, the member gather's products,
    inverse's Newton passes), each only while it runs.  Not thread-safe:
    one per thread.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}

    def array(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


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


@dataclass(frozen=True)
class _Kind:
    """A row of _KINDS: all that this module knows of one kind.  A kind with
    a power formula needs nothing below it; any other is inverted by Newton."""

    conjugate: Callable  # phi -> its complementary Young function, in closed form
    takes_p: bool = False  # p > 1 is given: the homogeneous kinds
    doubling: bool = True  # phi meets Delta_2, so check_delta2 certifies it
    power: Callable | None = None  # p -> (a, b, r) with phi = |x|**r * a / b; a factor of 1.0 is skipped
    value: Callable | None = None  # (ax, out, aux): phi at ax into out, not ax; aux None or scratch
    slope: Callable | None = None  # (x, out=): phi' at x >= 0 into out
    start: Callable | None = None  # (t, sqrt(2t), x, scratch): an upper bracket of each root into x
    series: np.ndarray | None = None  # phi = z**2 * polyval(series, z) near 0, with z = x
    series_in_slope: bool = False  # or with z = phi'(x)


def _log_type_into(ax: np.ndarray, out: np.ndarray, aux) -> None:
    lg = np.log1p(ax, out=aux)
    np.add(ax, 1.0, out=out)
    out *= lg
    out -= ax
    # (1+y) log1p(y) overflows below y ~ 2.6e305, before the difference does.
    if np.isinf(out).any():
        over = np.isinf(out) & (ax < math.inf)
        if over.any():
            np.copyto(out, ax * (lg - 1.0) + lg, where=over)


# One row per kind.  Each Newton start is short of its root by rounding at most (the first step then stops):
# exp_type: phi(x) >= x**2/2, and phi(log(2(1+t))) - t = 1 + t - log(2(1+t)) > 0;
# log_type: phi(y) >= y**2/(2+y) as log1p(y) >= 2y/(2+y), which is >= t at y = t + sqrt(2t).
_KINDS = {
    "power": _Kind(lambda phi: conjugate_power(phi.p), takes_p=True, power=lambda p: (1.0, 1.0, p)),
    "scaled_power": _Kind(lambda phi: scaled_power(phi.p / (phi.p - 1.0)), takes_p=True, power=lambda p: (1.0, p, p)),
    "conjugate_power": _Kind(
        lambda phi: power(phi.p),
        takes_p=True,
        power=lambda p: ((p - 1.0) * p ** (-p / (p - 1.0)), 1.0, p / (p - 1.0)),
    ),
    # exp(|x|) - |x| - 1 = sum_{k>=2} x**k / k!
    "exp_type": _Kind(
        lambda phi: log_type(),
        doubling=False,
        value=lambda ax, out, aux: np.subtract(np.expm1(ax, out=out), ax, out=out),
        slope=np.expm1,
        start=lambda t, root_t, x, s: np.minimum(
            np.minimum(root_t, np.add(np.log1p(t, out=s), math.log(2.0), out=s), out=x), _LOG_MAX, out=x
        ),
        series=np.array([1.0 / math.factorial(k) for k in range(15, 1, -1)]),
    ),
    # (1+|y|) log(1+|y|) - |y| = 1 + (z-1) e**z = sum_{k>=2} (k-1) z**k / k! in z = log1p(|y|)
    "log_type": _Kind(
        lambda phi: exp_type(),
        value=_log_type_into,
        slope=np.log1p,
        start=lambda t, root_t, x, s: np.add(t, root_t, out=x),
        series=np.array([(k - 1.0) / math.factorial(k) for k in range(15, 1, -1)]),
        series_in_slope=True,
    ),
}


def _as_float(value, where: str) -> float:
    # The int/float comparison is exact: it rejects NaN, infinities and too large ints.
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def from_config(fragment: dict) -> YoungFunction:
    """A YoungFunction from a fragment like {"kind": "scaled_power", "p": 2.0}; p is read for a kind that takes one."""
    if not isinstance(fragment, dict) or "kind" not in fragment:
        raise ConfigError("young: expected an object with a 'kind' field")
    kind = fragment["kind"]
    row = _KINDS.get(kind) if isinstance(kind, str) else None  # None: YoungFunction refuses the kind
    if row is not None and row.takes_p and "p" in fragment:
        return YoungFunction(kind, p=_as_float(fragment["p"], "young.p"))
    return YoungFunction(kind)


# Values per batch of inverse's Newton passes, and per block of evaluate's
# Newton kinds' passes into a given array: their scratch is a few
# arrays of that many values, not arrays the size of the batch.  Each Newton
# pass is some forty numpy calls, and two search ranges contend for the
# interpreter at every call, so the batches are large.
_BATCH = 1 << 16


def evaluate(phi: YoungFunction, x, out=None, work=None):
    """Evaluate phi at |x|.  Accepts scalars or ndarrays; exact for closed-form kinds.

    out: a C-contiguous float array of x's shape (x itself too) that receives
    phi(|x|); without one a new array does, returned as a float for a 0-d x.
    The closed-form kinds work it in place; the Newton kinds fill it _BATCH
    values at a time, their only scratch two arrays of one block, borrowed
    from `work` (a Workspace) when one is given.
    """
    xs = np.asarray(x, dtype=float)
    res = np.empty(xs.shape) if out is None else out  # not empty_like: C order whatever x's, so flat is a view
    xs, flat = xs.reshape(-1), res.reshape(-1)
    with np.errstate(over="ignore"):
        if phi.row.power is not None:
            _phi_into(phi, np.abs(xs, out=flat), flat, None)
        else:
            size = max(1, min(_BATCH, flat.size))
            mags, aux = (work or Workspace()).array("scratch", (2, size))
            for lo in range(0, flat.size, size):
                a = np.abs(xs[lo : lo + size], out=mags[: flat.size - lo])
                _phi_into(phi, a, flat[lo : lo + size], aux[: a.size])
    return float(res) if out is None and res.ndim == 0 else res


def _phi_into(phi: YoungFunction, ax: np.ndarray, out: np.ndarray, aux) -> None:
    """phi at the magnitudes ax, written into out, which may be ax itself for
    a closed-form kind only; aux is None or scratch of ax's shape."""
    if phi.row.power is None:
        return phi.row.value(ax, out, aux)
    a, b, r = phi.row.power(phi.p)
    np.power(ax, r, out=out)
    if a != 1.0:
        out *= a
    if b != 1.0:
        out /= b


def derivative(phi: YoungFunction, x, out=None):
    """phi' at |x|, the slope of phi on [0, inf); scalars or ndarrays, like evaluate.

    out: an array of x's shape that receives the slope at x itself, which
    must then be nonnegative: no copy and no |x| is made (inverse's Newton
    iterates are positive).
    """
    if out is None:
        out = np.array(x, dtype=float)  # one copy, worked in place
        x = np.abs(out, out=out)
    with np.errstate(over="ignore"):
        if phi.row.power is None:
            phi.row.slope(x, out=out)
        else:  # x**(r-1) * (a*r/b)
            a, b, r = phi.row.power(phi.p)
            np.power(x, r - 1.0, out=out)
            if a * r / b != 1.0:
                out *= a * r / b
    return float(out) if np.ndim(out) == 0 else out


def inverse(phi: YoungFunction, t, work=None):
    """Nonnegative x with |phi(x) - t| <= INVERSE_TOL * max(1, t), by the route of phi's kind.

    - a kind with a power formula: closed form.
    - any other: Newton's method from an upper bracket, iterated until the
      decreasing iterate stops moving, i.e. to machine resolution.  It meets
      INVERSE_TOL (near float max it comes within about 1e-13 * t) and lands
      within a few ulps of the root.  The targets are solved _BATCH at a time,
      each on one working set (see the comment above _newton_inverse).

    Scalars and ndarrays of targets are both accepted, and each result is
    independent of the batch it came in.  A target of +inf maps to +inf: it
    arises when a modular overflows double precision, and the convention keeps
    downstream ratios conservatively small.  A solver that runs out of budget
    raises BracketFailure.

    Workspace contract: given `work`, a writeable C-contiguous float64 array
    t is solved in place, the roots overwriting the targets, and the Newton
    passes run on arrays of `work`; measure.block_level inverts its block
    means so.  Otherwise t is left as it is and the roots are a new array.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    if not np.min(tt, initial=math.inf) >= 0:  # a NaN fails >= too
        raise ValueError("inverse target must be nonnegative and not nan")
    in_place = work is not None and tt is t and tt.flags.c_contiguous and tt.flags.writeable
    out = tt if in_place else None
    if phi.row.power is None:
        out = _newton_inverse(phi, tt if in_place else np.array(tt), work or Workspace())
    else:  # (t*b/a)**(1/r)
        a, b, r = phi.row.power(phi.p)
        if a == b == 1.0:
            out = np.power(tt, 1.0 / r, out=out)
        else:  # t*b/a into a new array (or t itself), then its root in place
            out = np.multiply(b, tt, out=out) if b != 1.0 else np.divide(tt, a, out=out)
            if a != 1.0 and b != 1.0:
                out /= a
            out **= 1.0 / r
    return float(out) if scalar else out


# Newton's method for the kinds without a power formula.  Each is convex and
# increasing on [0, inf), so Newton from an upper bracket (its row's start)
# decreases monotonically to the root, and an iterate that stops decreasing is
# at the root up to rounding.  The step (phi(x) - t) / phi'(x) is taken as
# phi(x)/phi'(x) - t/phi'(x), which stays finite up to float max: phi/phi' is
# 1 - x/phi' for a series in x (phi = phi' - x), and 1 + x - x/phi' for a
# series in the slope (phi = (1 + x) phi' - x).  Near 0 phi cancels, so it is
# taken from the row's series there; for z <= 1/4 the terms past k = 15 fall
# below 1e-17 of the sum.
#
# The passes run on one working set of rows that carries over from pass to
# pass.  While at least half its rows still move, a row that stopped is frozen
# in place: it keeps its iterate, and the next pass recomputes the same step
# from the same inputs, so it stays put.  Once fewer than half move, the set is
# compacted to the moving rows; the loop ends when no row moves.  Each row sees
# the same operations in the same order as on its own, so its root is
# bit-identical whatever batch it came in and whenever it stopped.
_SERIES_BELOW = 0.25
_NEWTON_ITERS = 64  # 9 passes, the last seeing no move, suffice from 5e-324 to float max
_LOG_MAX = math.log(sys.float_info.max)


def _newton_inverse(phi: YoungFunction, x: np.ndarray, work: Workspace) -> np.ndarray:
    """Overwrite every finite positive target in the C-contiguous x with its
    root, _BATCH targets at a time, on six float and two bool arrays of a
    batch from `work`; 0, -0.0 and inf are their own roots.  Returns x."""
    flat = x.reshape(-1)
    size = max(1, min(_BATCH, flat.size))
    floats, masks = work.array("scratch", (6, size)), work.array("young.newton.masks", (2, size), bool)
    for lo in range(0, flat.size, size):
        _newton_batch(phi, flat[lo : lo + size], floats, masks)
    return x


def _newton_batch(phi: YoungFunction, x: np.ndarray, floats: np.ndarray, masks: np.ndarray) -> None:
    row, m = phi.row, x.size
    good, mask = masks[0, :m], masks[1, :m]
    np.greater(x, 0.0, out=good)
    good &= np.less(x, math.inf, out=mask)
    if not good.any():
        return
    # A target that is 0 or inf stays in the set as the dummy target 1 from the
    # start 1, below its root: its step rises, so it never moves, and it is
    # never written back.  The start is taken on finite positive targets only.
    bufs = list(floats[:, :m])  # iterates, targets, slopes, steps and two scratch rows
    xa, ta = bufs[0], bufs[1]
    np.copyto(ta, x)
    dummy = np.logical_not(good, out=mask)
    np.copyto(ta, 1.0, where=dummy)
    root_t = np.sqrt(ta, out=bufs[2])
    root_t *= math.sqrt(2.0)
    row.start(ta, root_t, xa, bufs[3])
    np.copyto(xa, 1.0, where=dummy)
    todo = None  # the working set's rows of x: all of them until the first compaction
    for _ in range(_NEWTON_ITERS):
        m = xa.size
        slope = derivative(phi, xa, out=bufs[2][:m])
        step = np.divide(xa, slope, out=bufs[3][:m])  # x/phi'(x), then phi(x)/phi'(x), the step, the next iterate
        z = slope if row.series_in_slope else xa
        # Integer indices: a boolean gather costs several times nonzero + take.
        small = np.less(z, _SERIES_BELOW, out=mask[:m]).nonzero()[0]
        if small.size:
            zs = np.take(z, small, out=bufs[4][: small.size], mode="clip")
            # np.polyval's Horner loop in place (its first step, 0*z + c0, is c0),
            # then z * series * (z / phi'), in that order.
            poly = bufs[5][: small.size]
            poly.fill(row.series[0])
            for c in row.series[1:]:
                poly *= zs
                poly += c
            poly *= zs
            # z / phi'(x): phi'/phi' for a series in the slope, else the x/phi'(x) in step.
            poly *= np.divide(zs, zs, out=zs) if row.series_in_slope else np.take(step, small, out=zs, mode="clip")
        np.subtract(np.add(xa, 1.0, out=bufs[4][:m]) if row.series_in_slope else 1.0, step, out=step)
        if small.size:
            step[small] = poly
        del small
        np.divide(ta, slope, out=slope)
        np.subtract(step, slope, out=step)
        nxt = np.subtract(xa, step, out=step)
        moving = np.less(nxt, xa, out=mask[:m])
        n_moving = np.count_nonzero(moving)
        if n_moving and 2 * n_moving >= m:
            np.fmin(xa, nxt, out=xa)  # nxt where it is smaller, else (NaN too) xa
            continue
        if todo is None:
            np.copyto(x, xa, where=good)
        else:
            x[todo] = xa
        if not n_moving:
            return
        keep = moving.nonzero()[0]
        todo = keep if todo is None else todo[keep]
        xa = np.take(nxt, keep, out=bufs[0][: keep.size], mode="clip")
        # The targets move to the slope row, which takes their old row.
        ta = np.take(ta, keep, out=bufs[2][: keep.size], mode="clip")
        bufs[1], bufs[2] = bufs[2], bufs[1]
        del keep
    raise BracketFailure(f"Newton inverse of {phi.kind} did not settle in {_NEWTON_ITERS} passes")


def conjugate_closed_form(phi: YoungFunction) -> YoungFunction:
    """The complementary Young function; every kind has a closed form."""
    return phi.row.conjugate(phi)


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
