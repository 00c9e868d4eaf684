"""Parameter pickers for the four asymptotic regimes.

Each picker maps the regime's inputs to adversary parameters (L, m) with
natural-log arithmetic and reports feasibility against the construction's
preconditions instead of rounding toward them. The constants only become
feasible at astronomically large n in some regimes; the pickers say so
honestly via the ``feasible`` flag and the violated inequality.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import asdict, dataclass, field

from ..adversary import below_budget, least_budget, max_team_size, printable_or_none
from ..errors import InfeasibleParamsError

# Largest initial vertex budget we consider simulable on a desk machine;
# used only when a regime is asked about feasibility without a concrete n.
DESK_SCALE_N = 2**20


@dataclass(frozen=True)
class TheoremParams:
    theorem: str
    inputs: dict
    L: int | None
    m: int | None
    feasible: bool
    violated: str | None
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return asdict(self)


def _max_k_or_none(n: int, L: int, m: int) -> int | None:
    """The team bound, or None when it is undefined or too long to print."""
    try:
        return printable_or_none(max_team_size(n, L, m))
    except InfeasibleParamsError:
        return None


def _ceil_snapped(x: float) -> int:
    """Ceiling that treats values within 1e-9 of an integer as that integer.

    Rational expressions like 1/(2*eps) can land a hair above a true
    integer after binary rounding of the input; without the snap, the
    ceiling would depend on the working precision.
    """
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def _ceil_sqrt_ln(n: int) -> int:
    """ceil(sqrt(ln n)) for an integer n >= 2, decided exactly.

    ln n is never an integer for such n (e^j is transcendental), so
    neither is sqrt(ln n), and the ceiling is isqrt(floor(ln n)) + 1: m is
    the least j with j^2 >= ln n. ``decimal`` rounds ln correctly, so ln n
    lies strictly between the rounded value's two neighbours; the
    precision doubles until both neighbours have the same floor.
    """
    prec = 32
    while True:
        with decimal.localcontext(decimal.Context(prec=prec)):
            ln = decimal.Decimal(n).ln()
            neighbours = (ln.next_minus(), ln.next_plus())
            lo, hi = (int(x.to_integral_value(decimal.ROUND_FLOOR)) for x in neighbours)
        if lo == hi:
            return math.isqrt(lo) + 1
        prec *= 2


def _ceil_ln_over_lnln(n: int, d: int | float) -> int:
    """ceil(ln n / (d ln ln n)) for an integer n >= 3 and a rational d > 0, decided exactly.

    The quotient is never an integer j: ln n = d j ln ln n gives
    n = (ln n)^(d j), so ln n = n^(1/(d j)) would be algebraic and nonzero,
    and then e^(ln n) = n would be transcendental (Lindemann). So the
    ceiling is the floor plus one. ``decimal`` rounds ln correctly, so ln n
    lies strictly between the rounded value's neighbours, and ln ln n between
    the outer neighbours of their rounded logs. The quotient's bounds from
    these, rounded outward, are taken at a precision doubled until both have
    one floor.
    """
    if d >= 11 * n.bit_length():  # ln n < bits and ln ln n > 1/11: the quotient is under 1
        return 1
    d = decimal.Decimal(d)
    prec = 32
    while True:
        down = decimal.Context(prec=prec, rounding=decimal.ROUND_FLOOR)
        up = decimal.Context(prec=prec, rounding=decimal.ROUND_CEILING)
        ln = decimal.Decimal(n).ln(down)
        ln_lo, ln_hi = ln.next_minus(down), ln.next_plus(up)
        lnln_lo, lnln_hi = ln_lo.ln(down).next_minus(down), ln_hi.ln(up).next_plus(up)
        bounds = (down.divide(ln_lo, up.multiply(d, lnln_hi)), up.divide(ln_hi, down.multiply(d, lnln_lo)))
        lo, hi = (int(x.to_integral_value(decimal.ROUND_FLOOR)) for x in bounds)
        if lo == hi:
            return lo + 1
        prec *= 2


def _feasibility(n: int, L: int, m: int, k: int) -> tuple[bool, str | None, int | None]:
    if m < 2:
        return False, "m must exceed 1 for a nonzero round bound", _max_k_or_none(n, L, m)
    if below_budget(n, L, m):
        return False, f"n >= L*16^m fails: {n} < {least_budget(L, m) or f'{L}*16^{m}'}", None
    kmax = max_team_size(n, L, m)
    if k > kmax:  # then kmax is shorter than k, which printed
        return False, f"k <= max team size fails: {k} > {kmax}", kmax
    return True, None, printable_or_none(kmax)


def pick_params_thm1(
    n: int, k: int, c: int, m: int | None = None, L: int | None = None
) -> TheoremParams:
    """Regime 1: k up to n log^c n; m ~ log n / ((8+c) log log n), L = ceil(n/(mk)).

    ``m`` and ``L`` may be overridden to probe specific desk-scale points.
    """
    if n < 3:
        raise InfeasibleParamsError(f"n >= 3 required (got {n})")
    if k < 1 or c < 0:
        raise InfeasibleParamsError(f"k >= 1 and c >= 0 required (got k={k}, c={c})")
    if m is None:
        m = _ceil_ln_over_lnln(n, 8 + c)
    if L is None:
        L = -(-n // (m * k))  # exact ceiling division
    feasible, violated, kmax = _feasibility(n, L, m, k)
    return TheoremParams(
        theorem="thm1",
        inputs={"n": n, "k": k, "c": c},
        L=L,
        m=m,
        feasible=feasible,
        violated=violated,
        details={"max_team_size": kmax},
    )


def pick_params_thm2(eps: float, n: int | None = None, k: int | None = None) -> TheoremParams:
    """Regime 2: L = 1, m = ceil(1/(2 eps)); the target round floor is m/(5 eps).

    Without a concrete n, feasibility means the required n = 16^m fits on
    a desk machine (n <= 2^20).
    """
    if not (0 < eps < 0.2):
        raise InfeasibleParamsError(f"eps must lie in (0, 1/5) (got {eps})")
    half_inverse = 1 / (2 * eps)  # infinite for the smallest subnormal eps
    m = _ceil_snapped(half_inverse) if half_inverse < math.inf else None
    min_n = None if m is None else least_budget(1, m)
    if min_n is None:
        raise InfeasibleParamsError(
            f"eps = {eps} is too small: the least n, 16^ceil(1/(2 eps)), is too long to print"
        )
    L = 1
    round_bound = m / (5 * eps)
    binom = math.comb(m, 2)
    details: dict = {
        "round_bound": round_bound,
        "binomial_m_2": binom,
        "binomial_covers_bound": binom >= round_bound,
        "min_n": min_n,
    }
    if n is None:
        feasible = min_n <= DESK_SCALE_N
        violated = None if feasible else f"required n = 16^{m} = {min_n} exceeds desk scale {DESK_SCALE_N}"
    else:
        feasible, violated, kmax = _feasibility(n, L, m, k if k is not None else 1)
        details["max_team_size"] = kmax
    return TheoremParams(
        theorem="thm2",
        inputs={"eps": eps, "n": n, "k": k},
        L=L,
        m=m,
        feasible=feasible,
        violated=violated,
        details=details,
    )


def pick_params_thm3(n: int) -> TheoremParams:
    """Regime 3: full team k = n, L = 1, m = ceil(sqrt(log n))."""
    if n < 3:
        raise InfeasibleParamsError(f"n >= 3 required (got {n})")
    m = _ceil_sqrt_ln(n)
    L = 1
    feasible, violated, kmax = _feasibility(n, L, m, n)
    return TheoremParams(
        theorem="thm3",
        inputs={"n": n, "k": n},
        L=L,
        m=m,
        feasible=feasible,
        violated=violated,
        details={"max_team_size": kmax},
    )


def pick_params_thm4(n: int, D: int, m: int, k: int | None = None) -> TheoremParams:
    """Regime 4: trees of height at least D; L = D, m supplied by the caller.

    ``k`` defaults to n (a linear-size team). Also flags m growing past
    ceil(sqrt(log n)), which the regime does not allow.
    """
    if n < 3 or D < 1 or m < 1:
        raise InfeasibleParamsError(
            f"n >= 3, D >= 1, m >= 1 required (got n={n}, D={D}, m={m})"
        )
    L = D
    k_eval = k if k is not None else n
    m_limit = _ceil_sqrt_ln(n)
    feasible, violated, kmax = _feasibility(n, L, m, k_eval)
    m_ok = m <= m_limit
    if feasible and not m_ok:
        feasible = False
        violated = f"m <= ceil(sqrt(log n)) fails: {m} > {m_limit}"
    return TheoremParams(
        theorem="thm4",
        inputs={"n": n, "D": D, "m": m, "k": k_eval},
        L=L,
        m=m,
        feasible=feasible,
        violated=violated,
        details={"max_team_size": kmax, "m_limit": m_limit, "m_within_limit": m_ok},
    )


def pick_params(theorem: str, **kwargs) -> TheoremParams:
    """Dispatch by CLI name (thm1 .. thm4)."""
    if theorem == "thm1":
        return pick_params_thm1(
            kwargs["n"], kwargs["k"], kwargs.get("c", 1), m=kwargs.get("m"), L=kwargs.get("L")
        )
    if theorem == "thm2":
        return pick_params_thm2(kwargs["eps"], n=kwargs.get("n"), k=kwargs.get("k"))
    if theorem == "thm3":
        return pick_params_thm3(kwargs["n"])
    if theorem == "thm4":
        return pick_params_thm4(kwargs["n"], kwargs["D"], kwargs["m"], k=kwargs.get("k"))
    raise InfeasibleParamsError(f"unknown theorem {theorem!r}")
