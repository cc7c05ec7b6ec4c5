"""The limit cost functional, its directional derivative, and identity checks.

Every term of the functional is implemented as a symmetric bilinear form;
the functional evaluates the diagonal and the directional derivative
evaluates twice the off-diagonal pairing against the linearized state.
Because both share the same quadratures and lifted operators, a central
finite difference of the (exactly quadratic) discrete functional must
reproduce the directional derivative to solver tolerance -- that agreement
is a test, not an assumption.

Factor bookkeeping: the functional carries no 1/2 factors, so its value at
the optimal pair equals the space-time integral of f times the adjoint
state, and the derivative returned here is the honest derivative of the
implemented functional (twice each bilinear pairing).  The v(x,T)^2 term
carries the weight N*An*Bn*(Bn + 1/N); the derivative check below is what
pins both choices down empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from .fields import (check_compatible, dt_inner, grad_inner, lift_timeop,
                     space_inner_at, spacetime_inner)
from .state import discretization, solve_linearized


@dataclass(frozen=True)
class CostBreakdown:
    """All cost terms individually, plus their sum."""

    grad_term: float
    terminal_term: float
    dtGH_term: float
    M_terminal_term: float
    M_bulk_term: float
    H_terminal_term: float
    H_bulk_term: float
    dv_term: float
    v_terminal_term: float
    v_bulk_term: float
    total: float

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def _omega(fld, params):
    """Controlled-region mask of fld's grid, from the cached discretization."""
    return discretization(params, fld.grid, fld.tgrid).omega


def _u_lifts(u, params):
    return {
        "M": lift_timeop(u, "M", params),
        "H": lift_timeop(u, "H", params),
        "GH": lift_timeop(u, "G*H", params),
    }


def _u_pairings(a, b, params, lifts_a, lifts_b, w, c):
    """The seven state-dependent bilinear forms, paired between a and b."""
    An, Bn, N = params.An, params.Bn, params.N

    def relax_defect(fld, lifts, op):
        out = fld.copy()
        out.values -= Bn * lifts[op].values
        return out

    aM = relax_defect(a, lifts_a, "M")
    bM = aM if b is a else relax_defect(b, lifts_b, "M")
    aH = relax_defect(a, lifts_a, "H")
    bH = aH if b is a else relax_defect(b, lifts_b, "H")
    return {
        "grad_term": grad_inner(a, b),
        "terminal_term": space_inner_at(a, b, -1),
        "dtGH_term": (An * Bn / N) * dt_inner(lifts_a["GH"], lifts_b["GH"],
                                              mask=w),
        "M_terminal_term": An * Bn * space_inner_at(
            lifts_a["M"], lifts_b["M"], -1, mask=c),
        "M_bulk_term": An * spacetime_inner(aM, bM, mask=c),
        "H_terminal_term": An * Bn * space_inner_at(
            lifts_a["H"], lifts_b["H"], -1, mask=w),
        "H_bulk_term": An * spacetime_inner(aH, bH, mask=w),
    }


def _v_pairings(va, vb, params, w):
    An, Bn, N, mu = params.An, params.Bn, params.N, params.mu
    return {
        "dv_term": N * An * Bn * dt_inner(va, vb, mask=w),
        "v_terminal_term": N * An * Bn * mu * space_inner_at(va, vb, -1, mask=w),
        "v_bulk_term": N * An * Bn ** 2 * mu * spacetime_inner(va, vb, mask=w),
    }


def evaluate_J0(v, u0, params):
    """All cost terms for a control v and a state field u0."""
    check_compatible(v, u0)
    w = _omega(u0, params)
    c = ~w
    lifts = _u_lifts(u0, params)
    terms = _u_pairings(u0, u0, params, lifts, lifts, w, c)
    terms.update(_v_pairings(v, v, params, w))
    return CostBreakdown(total=sum(terms.values()), **terms)


def gradient_J0(v0, u0_of_v0, params, direction, *, tol=1e-10, max_picard=400):
    """Directional derivative of the implemented functional at (v0, u0(v0)).

    Solves the linearized state for the direction and returns twice the sum
    of all bilinear pairings (the exact derivative of the quadratic
    functional, up to solver tolerance).
    """
    check_compatible(v0, direction)
    return sum(gradient_J0_terms(v0, u0_of_v0, params, direction, tol=tol,
                                 max_picard=max_picard).values())


def gradient_J0_terms(v0, u0_of_v0, params, direction, *, tol=1e-10,
                      max_picard=400):
    """Per-term pairings of the derivative (each already doubled).

    The gross magnitude sum(|term|) is the natural scale against which the
    cancellation at a stationary point is judged.
    """
    check_compatible(v0, u0_of_v0)
    w = _omega(u0_of_v0, params)
    c = ~w
    theta = solve_linearized(direction, params, tol=tol, max_picard=max_picard)
    terms = _u_pairings(theta, u0_of_v0, params, _u_lifts(theta, params),
                        _u_lifts(u0_of_v0, params), w, c)
    terms.update(_v_pairings(direction, v0, params, w))
    return {name: 2.0 * val for name, val in terms.items()}


def check_fp_identity(f, result, params):
    """(J0 at the optimal pair, integral of f times the adjoint state)."""
    lhs = evaluate_J0(result.v0, result.u0, params).total
    rhs = spacetime_inner(f, result.p0)
    return lhs, rhs


def check_M_decomposition(u, params):
    """Quadratic decomposition of the uncontrolled-region memory pairing.

    lhs = int_{complement} (u - Bn^2 M*(M(u))) u
    rhs = int_{complement} (u - Bn M(u))^2 + Bn int_{complement} M(u)(T)^2
    """
    Bn = params.Bn
    c = ~_omega(u, params)
    Mu = lift_timeop(u, "M", params)
    MsMu = lift_timeop(Mu, "M*", params)
    left = u.copy()
    left.values -= Bn ** 2 * MsMu.values
    lhs = spacetime_inner(left, u, mask=c)
    defect = u.copy()
    defect.values -= Bn * Mu.values
    rhs = spacetime_inner(defect, defect, mask=c) \
        + Bn * space_inner_at(Mu, Mu, -1, mask=c)
    return lhs, rhs


def check_GH_decomposition(u, params):
    """Quadratic decomposition of the controlled-region memory pairing.

    lhs = int_{omega} (u - Bn*mu*G*(H(u))) u
    rhs = int_{omega} (u - Bn H(u))^2 + (Bn/N) int_{omega} (dt G*(H(u)))^2
          + Bn int_{omega} H(u)(T)^2
    """
    Bn, mu, N = params.Bn, params.mu, params.N
    w = _omega(u, params)
    GHu = lift_timeop(u, "G*H", params)
    Hu = lift_timeop(u, "H", params)
    left = u.copy()
    left.values -= Bn * mu * GHu.values
    lhs = spacetime_inner(left, u, mask=w)
    defect = u.copy()
    defect.values -= Bn * Hu.values
    rhs = spacetime_inner(defect, defect, mask=w) \
        + (Bn / N) * dt_inner(GHu, GHu, mask=w) \
        + Bn * space_inner_at(Hu, Hu, -1, mask=w)
    return lhs, rhs


def check_HGstar_decomposition(p, params):
    """Quadratic decomposition of the control-extraction pairing.

    lhs = int_{omega} H(G*(p)) p
    rhs = int_{omega} (dt H(G*(p)))^2 + Bn*mu int_{omega} H(G*(p))^2
          + mu int_{omega} H(G*(p))(T)^2
    """
    Bn, mu = params.Bn, params.mu
    w = _omega(p, params)
    HGp = lift_timeop(p, "HG*", params)
    lhs = spacetime_inner(HGp, p, mask=w)
    rhs = dt_inner(HGp, HGp, mask=w) \
        + Bn * mu * spacetime_inner(HGp, HGp, mask=w) \
        + mu * space_inner_at(HGp, HGp, -1, mask=w)
    return lhs, rhs
