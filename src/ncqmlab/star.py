"""Groenewold-Moyal star product on polynomial symbols, star gauge fields,
disentangling identities, and the Seiberg-Witten map.

All products are exact: the Moyal series terminates on polynomials, so every
identity here is checked as a polynomial identity, not numerically.
Conventions: theta^{12} = theta = -theta^{21}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DomainError, InternalMismatch
from .params import NCParams, require_coupling
from .polysymbol import PolySymbol, x1, x2
from .reps import symmetric_vector_potential


def _check_pair(f: PolySymbol, g: PolySymbol) -> None:
    if f.arity != 2 or g.arity != 2:
        raise ArityMismatch("star product expects arity-2 symbols in (x1, x2)")


def moyal_star(f: PolySymbol, g: PolySymbol, theta: float) -> PolySymbol:
    """f star g = sum_k (i theta/2)^k/k! sum_m C(k,m)(-1)^(k-m)
    (d1^m d2^(k-m) f)(d2^m d1^(k-m) g); terminates at min(deg f, deg g)."""
    _check_pair(f, g)
    result = PolySymbol.zero(2)
    kmax = min(f.degree, g.degree)
    for k in range(kmax + 1):
        prefactor = (0.5j * theta) ** k / math.factorial(k)
        term = PolySymbol.zero(2)
        for m in range(k + 1):
            df = f
            for _ in range(m):
                df = df.diff(0)
            for _ in range(k - m):
                df = df.diff(1)
            dg = g
            for _ in range(m):
                dg = dg.diff(1)
            for _ in range(k - m):
                dg = dg.diff(0)
            term = term + (math.comb(k, m) * (-1) ** (k - m)) * (df * dg)
        result = result + prefactor * term
    return result


def star_commutator(f: PolySymbol, g: PolySymbol, theta: float) -> PolySymbol:
    return moyal_star(f, g, theta) - moyal_star(g, f, theta)


@dataclass(frozen=True)
class GaugePotential:
    """A pair of polynomial gauge-potential components in (x1, x2)."""

    A: tuple
    e: float = 1.0

    def __post_init__(self):
        if len(self.A) != 2 or any(p.arity != 2 for p in self.A):
            raise ArityMismatch("gauge potential needs two arity-2 components")


def symmetric_star_gauge(Bbar: float, e: float = 1.0) -> GaugePotential:
    """The symmetric configuration (-Bbar x2/2, Bbar x1/2) at charge e."""
    return GaugePotential(symmetric_vector_potential(Bbar), e)


def field_strength(A: GaugePotential, theta: float) -> PolySymbol:
    """F12 = d1 A2 - d2 A1 - i e [A1 star, A2]."""
    A1, A2 = A.A
    comm = star_commutator(A1, A2, theta)
    return A2.diff(0) - A1.diff(1) - (1j * A.e) * comm


@dataclass(frozen=True)
class EffectiveLandauParams:
    """Redefined field/mass/charge parameters of the disentangled problem.

    The star/operatorial branch fills (Bbar, Lambda_bar, m_star, e_star)
    with Lambda_bar * Bbar = B_physical; the Seiberg-Witten constant-field
    branch fills (B_check, m_check) with B_check (1 - e theta B) = B.
    """

    B_physical: float
    Bbar: float
    Lambda_bar: float
    m_star: float | None = None
    e_star: float | None = None
    B_check: float | None = None
    m_check: float | None = None


def lambda_bar(Bbar: float, e: float, theta: float) -> float:
    return 1.0 + 0.25 * e * theta * Bbar


def bbar_of_B(B: float, params: NCParams) -> EffectiveLandauParams:
    """Solve Lambda_bar(Bbar) * Bbar = B for Bbar.

    Closed form Bbar = (2/(e theta))(sqrt(1 + e theta B) - 1), evaluated as
    2B / (sqrt(1 + e theta B) + 1): algebraically identical, but free of the
    subtractive cancellation that would otherwise wreck small e*theta*B
    (and well defined at e*theta = 0, where it reduces to B).
    """
    e, theta = params.e, params.theta
    u = e * theta * B
    if 1.0 + u < 0:
        raise DomainError(f"1 + e*theta*B = {1.0 + u} < 0: no real Bbar")
    bbar = 2.0 * B / (math.sqrt(1.0 + u) + 1.0)
    lam = lambda_bar(bbar, e, theta)
    return EffectiveLandauParams(
        B_physical=B, Bbar=bbar, Lambda_bar=lam,
        m_star=params.m / lam ** 2, e_star=e / lam,
    )


def star_landau_spectrum(params: NCParams, Bbar: float, k: int) -> np.ndarray:
    """The lowest k Landau levels of the disentangled problem:
    E_n = (|e* Bbar|/m*)(n+1/2) = (|e Lambda_bar Bbar|/m)(n+1/2).  A zero
    coupling is refused: e = 0, or Bbar = 0, which is B = Lambda_bar Bbar
    = 0."""
    require_coupling(params.e, Bbar, "B", "has no levels to print")
    lam = lambda_bar(Bbar, params.e, params.theta)
    return abs(params.e * lam * Bbar) / params.m * (np.arange(k) + 0.5)


# --- Seiberg-Witten map ------------------------------------------------

def _theta_cross(f1: PolySymbol, f2: PolySymbol, g: PolySymbol) -> PolySymbol:
    """theta^{kl} f_k d_l g with theta^{12}=1: f1 d2 g - f2 d1 g."""
    return f1 * g.diff(1) - f2 * g.diff(0)


def _sw_bilinear(U: tuple, V: tuple, e: float, theta: float) -> tuple:
    """S_i(U, V) = -(e/2) theta^{kl} U_k (d_l V_i + F_li(V)).

    The first-order map shift is S(A, A); its linearization in direction D
    is S(D, A) + S(A, D).
    """
    U1, U2 = U
    V1, V2 = V
    F12 = V2.diff(0) - V1.diff(1)
    out = []
    for i, Vi in enumerate((V1, V2)):
        # F_{li}: F_{21} = -F12 pairs with U1, F_{12} = F12 with U2.
        F2i = -F12 if i == 0 else PolySymbol.zero(2)
        F1i = PolySymbol.zero(2) if i == 0 else F12
        shift = U1 * (Vi.diff(1) + F2i) - U2 * (Vi.diff(0) + F1i)
        out.append((-0.5 * e * theta) * shift)
    return tuple(out)


def sw_first_order(A: GaugePotential, lam: PolySymbol, psi: PolySymbol,
                   theta: float) -> dict:
    """First-order Seiberg-Witten map with its defining-property residual.

    Returns the mapped fields and the O(theta) residual of
    [A_check(A) + nc-gauge-transform] - A_check(A + ordinary transform],
    which must vanish identically as a polynomial.
    """
    e = A.e
    A1, A2 = A.A
    F12 = A2.diff(0) - A1.diff(1)

    # first-order coordinate-change part: -(e/2) theta^{kl} A_k (d_l A_i + F_li)
    shift = _sw_bilinear(A.A, A.A, e, theta)
    A_check = (A1 + shift[0], A2 + shift[1])
    lam_1 = (-0.5 * e * theta) * _theta_cross(A1, A2, lam)
    lam_check = lam + lam_1
    psi_check = psi + (-0.5 * e * theta) * _theta_cross(A1, A2, psi)
    # F_check_{12} = F12 + e theta^{kl} F_{1k} F_{2l} = F12 + e theta F12^2
    F_check = F12 + (e * theta) * F12 * F12

    # Defining property at O(theta): transform-then-map == map-then-transform,
    # for an infinitesimal transform, i.e. to linear order in lambda.
    grad = (lam.diff(0), lam.diff(1))
    linearized = tuple(
        a + b for a, b in zip(_sw_bilinear(grad, (A1, A2), e, theta),
                              _sw_bilinear((A1, A2), grad, e, theta))
    )
    residuals = []
    for i, Ai in enumerate((A1, A2)):
        # nc transform of A_check at O(theta):
        # d_i lam_1 + e theta (d1 A_i d2 lam - d2 A_i d1 lam)
        nc_piece = lam_1.diff(i) + (e * theta) * _theta_cross(
            Ai.diff(0), Ai.diff(1), lam)
        residuals.append(nc_piece - linearized[i])
    return {
        "A_check": A_check,
        "lambda_check": lam_check,
        "psi_check": psi_check,
        "F_check": F_check,
        "residual": tuple(residuals),
    }


def sw_constant_field(curlyB: float, params: NCParams, k: int):
    """All-orders constant-field Seiberg-Witten map and its lowest k levels.

    B_check = B/(1 - e theta B) realized by the symmetric gauge with
    coefficient Bbar = (2/(e theta))(1/sqrt(1 - e theta B) - 1), evaluated
    in the cancellation-free form 2B / (sqrt(1-u)(1 + sqrt(1-u))); the
    spectrum E_n = (|e B|/m)(n+1/2) is theta-independent.  A zero
    coupling e B is refused.
    """
    e, theta, m = params.e, params.theta, params.m
    require_coupling(e, curlyB, "curlyB", "has no levels to print")
    u = e * theta * curlyB
    if 1.0 - u <= 0:
        raise DomainError(
            f"1 - e*theta*B = {1.0 - u} <= 0: at/beyond the map singularity"
        )
    root = math.sqrt(1.0 - u)
    bbar = 2.0 * curlyB / (root * (1.0 + root))
    B_check = curlyB / (1.0 - u)
    m_check = m / (1.0 - u)

    # the symmetric configuration with coefficient bbar must reproduce B_check
    F = field_strength(symmetric_star_gauge(bbar, e), theta)
    defect = (F - PolySymbol.constant(2, B_check)).max_abs_coeff()
    if defect > 1e-12 * max(1.0, abs(B_check)):
        raise InternalMismatch(
            f"symmetric star gauge missed B_check by {defect}"
        )
    eff = EffectiveLandauParams(
        B_physical=curlyB, Bbar=bbar,
        Lambda_bar=lambda_bar(bbar, e, theta),
        B_check=B_check, m_check=m_check,
    )
    return eff, abs(e * curlyB) / m * (np.arange(k) + 0.5)


# --- star-operator algebra ---------------------------------------------

@dataclass(frozen=True)
class StarOp:
    """Operator alpha_j p_j + f(x) star, with constant momentum coefficients."""

    p_coeffs: tuple
    fn: PolySymbol

    def __post_init__(self):
        if self.fn.arity != 2:
            raise ArityMismatch("function part must be an arity-2 symbol")


def star_op_bracket(a: StarOp, b: StarOp, theta: float) -> StarOp:
    """[a, b] for star operators; p_j = -i d_j gives
    [p_j, g star] = -i (d_j g) star, so the bracket is a pure function."""
    fn = star_commutator(a.fn, b.fn, theta)
    for j in range(2):
        fn = fn + (-1j * a.p_coeffs[j]) * b.fn.diff(j)
        fn = fn + (1j * b.p_coeffs[j]) * a.fn.diff(j)
    return StarOp((0.0, 0.0), fn)


def star_commutation_table(A: GaugePotential, theta: float) -> dict:
    """The deformed bracket table of the star formalism.

    Returns polynomial brackets [x1*,x2], [Pi1,Pi2], [x_i*,Pi_j] for
    Pi_j = p_j - e A_j(x) star, plus the maximum star-Jacobi residual over
    all operator triples (identically zero).
    """
    e = A.e
    ops = {
        "x1": StarOp((0.0, 0.0), x1()),
        "x2": StarOp((0.0, 0.0), x2()),
        "Pi1": StarOp((1.0, 0.0), -e * A.A[0]),
        "Pi2": StarOp((0.0, 1.0), -e * A.A[1]),
    }
    F = field_strength(A, theta)
    table = {
        ("x1", "x2"): star_op_bracket(ops["x1"], ops["x2"], theta).fn,
        ("Pi1", "Pi2"): star_op_bracket(ops["Pi1"], ops["Pi2"], theta).fn,
    }
    for xi in ("x1", "x2"):
        for pj in ("Pi1", "Pi2"):
            table[(xi, pj)] = star_op_bracket(ops[xi], ops[pj], theta).fn

    names = list(ops)
    jacobi = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                a, b, c = ops[names[i]], ops[names[j]], ops[names[k]]
                total = star_op_bracket(a, star_op_bracket(b, c, theta), theta).fn
                total = total + star_op_bracket(
                    b, star_op_bracket(c, a, theta), theta).fn
                total = total + star_op_bracket(
                    c, star_op_bracket(a, b, theta), theta).fn
                jacobi = max(jacobi, total.max_abs_coeff())
    return {
        "table": table,
        "field_strength": F,
        "jacobi_residual": jacobi,
    }
