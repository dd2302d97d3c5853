"""Write the 50-digit exp_type / log_type inverse roots into golden.json.

Needs mpmath, which the tests do not: they read the recorded strings.
    python3 tests/golden_roots.py
"""

import json
import math
import pathlib
import re
import sys

import mpmath

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden.json"
# 0.3413953243244932 is the smallest log_type block-mean target of example-1.6b;
# 0.03... are phi(1/4) and phi(expm1(1/4)), where the Newton route changes branch.
_SHARED = (1e-300, 1e-12, 0.3413953243244932, 1.0, 17.0, 1e62, 1e300, sys.float_info.max)
TARGETS = {
    "exp_type": tuple(sorted(_SHARED + (0.034025416687741505,))),
    "log_type": tuple(sorted(_SHARED + (0.03698093748419384,))),
}


def root(kind: str, t: float) -> mpmath.mpf:
    """Newton on the exact phi from an upper bracket, with digits to spare near x ~ sqrt(2t)."""
    with mpmath.workdps(80 + max(0, int(-math.log10(t) / 2) + 10)):
        target = mpmath.mpf(t)
        if kind == "exp_type":
            phi, slope = (lambda x: mpmath.expm1(x) - x), mpmath.expm1
            x = min(mpmath.sqrt(2 * target), mpmath.log(2 * (1 + target)))
        else:
            phi, slope = (lambda y: (1 + y) * mpmath.log1p(y) - y), mpmath.log1p
            x = target + mpmath.sqrt(2 * target)
        for _ in range(500):
            step = (phi(x) - target) / slope(x)
            x -= step
            if abs(step) <= abs(x) * mpmath.mpf(10) ** -70:
                if abs(phi(x) - target) > target * mpmath.mpf(10) ** -60:
                    raise RuntimeError(f"{kind} residual too large at {t!r}")
                return x
    raise RuntimeError(f"no convergence for {kind} at {t!r}")


if __name__ == "__main__":
    # Existing numbers are kept digit for digit: parsed as marked strings, unquoted on output.
    golden = json.loads(GOLDEN_PATH.read_text(), parse_float=lambda digits: "\0" + digits)
    golden["inverse_roots"] = {
        "provenance": (
            f"tests/golden_roots.py, mpmath {mpmath.__version__}: Newton on the exact phi in at "
            "least 80 digits, stopped at a relative step below 1e-70, residual below 1e-60 * t; "
            "pairs of [target as repr of a double, root to 50 significant digits]"
        ),
        **{
            kind: [[repr(t), mpmath.nstr(root(kind, t), 50, min_fixed=0, max_fixed=0)] for t in ts]
            for kind, ts in TARGETS.items()
        },
    }
    text = re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(golden, indent=2))
    GOLDEN_PATH.write_text(text + "\n")
