"""Exact tail-asymptotic classes of the stationary distribution.

Each direction (the two boundary rays, the two coordinate marginals, and
the diagonal) gets a class (rate a, exponent kappa, period-2 flag) meaning
p(n) ~ const * n^kappa * (1 + b(-1)^n) * a^(-n), with b left unknown in
[-1, 1] whenever the period-2 factor is present.

Every class of both axes is read off the model's one `Geometry` (the decay
vector tau, the extreme points of both axes and the sigma roots), indexed
by k = axis - 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernel
from .geometry import SigmaPoints, compute_geometry, tie_sign
from .model import ValidatedModel, arithmetic_profile, check_stability, drifts


@dataclass(frozen=True)
class AsymptoticClass:
    rate: float  # the a in a^(-n), strictly above 1
    kappa: float  # one of -3/2, -1/2, 0, 1
    periodic: bool  # presence of the (1 + b(-1)^n) factor
    provenance: str

    def human(self) -> str:
        parts = []
        if self.kappa != 0.0:
            e = {1.0: "n", -0.5: "n^{-1/2}", -1.5: "n^{-3/2}"}[self.kappa]
            parts.append(e)
        if self.periodic:
            parts.append("(1+b(-1)^n)")
        parts.append(f"({self.rate:.5g})^{{-n}}")
        return " ".join(parts)


def sigma_points(model: ValidatedModel) -> SigmaPoints:
    """The sigma roots stored with the model's geometry."""
    return compute_geometry(model).sigma


# the category seen from axis 2: the axis that pins the decay vector swaps
_MIRROR = {"I": "I", "II": "III", "III": "II"}


def _boundary_driven(model: ValidatedModel, axis: int, direction: str,
                     reason: str | None = None) -> AsymptoticClass:
    """The `axis` boundary class, relabelled as the class of `direction`."""
    base = boundary_class(model, axis)
    reason = reason or base.provenance.split("|", 1)[1]
    return replace(base, provenance=f"{direction}|boundary-driven|{reason}")


def boundary_class(model: ValidatedModel, axis: int) -> AsymptoticClass:
    """Exact asymptotic class of the stationary probabilities on the
    `axis` boundary ray (all mass on the other coordinate at zero)."""
    k = axis - 1
    geo = compute_geometry(model)
    prof = arithmetic_profile(model)
    ax = (geo.axis1, geo.axis2)[k]
    cat = _MIRROR[geo.category] if k else geo.category
    tau = geo.tau[k]
    crossing_at_branch = ax.face_side == 0
    driver_is_crossing = ax.face_side > 0
    # with no upward mass on the face its curve section is analytic, so a
    # tangency at the branch point leaves a plain simple pole instead of the
    # square-root merger (the merger constant divides by the upward mass)
    degenerate_tangency = crossing_at_branch and (prof.m1_2_zero, prof.m2_1_zero)[k]

    if cat in ("I", "III"):
        if driver_is_crossing:
            kappa, case = 0.0, "simple-pole"
        elif degenerate_tangency:
            kappa, case = 0.0, "pole-at-branch-degenerate-face"
        elif crossing_at_branch:
            kappa, case = -0.5, "pole-merged-with-branch"
        else:
            kappa, case = -1.5, "bare-branch"
    else:  # category II: the other axis pins the decay vector
        if tie_sign(tau, ax.u_gamma[k]) < 0:
            kappa, case = 0.0, "upstream-pole"
        elif driver_is_crossing:
            kappa, case = 1.0, "double-pole"
        elif crossing_at_branch:
            kappa, case = 0.0, "upstream-pole-at-branch"
        else:
            kappa, case = -0.5, "upstream-pole-on-branch"

    # B and C case digits of this axis's own face and of the other face
    digits = (prof.b_case[1], prof.c_case[1])
    own, other = digits[k], digits[1 - k]
    periodic = False
    if not prof.va:
        if own == "2":
            periodic = True
        elif cat in ("I", "III"):
            periodic = kappa == -1.5
        else:
            periodic = case == "upstream-pole-on-branch" and other == "2"
    arith = "non-arithmetic" if prof.va else f"B{own}C{other}"
    return AsymptoticClass(rate=tau, kappa=kappa, periodic=periodic,
                           provenance=f"boundary{axis}|{arith}|category-{cat}|{case}")


def marginal_class(model: ValidatedModel, axis: int) -> AsymptoticClass:
    """Exact asymptotic class of the `axis` marginal tail."""
    k = axis - 1
    name = f"marginal{axis}"
    geo = compute_geometry(model)
    u_g = (geo.axis1, geo.axis2)[k].u_gamma[k]
    zl = float(np.real(kernel.zeta_lower(model, 2 - k, u_g)))
    zu = float(np.real(kernel.zeta_upper(model, 2 - k, u_g)))
    tau = geo.tau[k]
    zu_side = tie_sign(zu, 1.0)
    zl_eq1 = tie_sign(zl, 1.0) == 0

    if zu_side < 0:
        rate = (geo.sigma.sigma_plus_1, geo.sigma.sigma_plus_2)[k]
        if rate is None:
            return _boundary_driven(model, axis, name, "sigma-missing-warning")
        return AsymptoticClass(rate, 0.0, False, f"{name}|unit-line-exits-early")
    if zu_side > 0 and not zl_eq1:
        return _boundary_driven(model, axis, name)
    if zu_side > 0:
        return AsymptoticClass(tau, 0.0, False, f"{name}|unit-line-through-lower-branch")
    if zl_eq1:
        return AsymptoticClass(tau, 0.0, False, f"{name}|unit-line-at-branch-point")
    return AsymptoticClass(tau, 1.0, False, f"{name}|unit-line-through-upper-branch")


def diagonal_class(model: ValidatedModel) -> AsymptoticClass:
    """Exact asymptotic class of the tail of the coordinate sum."""
    geo = compute_geometry(model)
    # the axis with the smaller decay rate leads; axis 1 on a tie
    k = int(tie_sign(geo.tau[0], geo.tau[1]) > 0)
    tau, tau_other = geo.tau[k], geo.tau[1 - k]
    u_max = (geo.axis1, geo.axis2)[k].u_max
    sd = geo.sigma.sigma_d
    if sd is None:
        return _boundary_driven(model, k + 1, "diagonal", "sigma-missing-warning")
    side = tie_sign(sd, tau)
    # the diagonal leaves the domain at (sd, sd) only where that point is on
    # the outer arc, from the axis-2 branch point to the axis-1 one; off it,
    # the branch points still dominate the diagonal beyond sd
    on_arc = (tie_sign(sd, geo.axis2.u_max_pt[0]) >= 0
              and tie_sign(sd, geo.axis1.u_max_pt[1]) >= 0)
    if side < 0 and on_arc:
        return AsymptoticClass(sd, 0.0, False, "diagonal|diagonal-exits-early")
    if side != 0:
        return _boundary_driven(model, k + 1, "diagonal")
    if tie_sign(tau, u_max) != 0:
        return AsymptoticClass(sd, 1.0, False, "diagonal|double-pole")
    if tie_sign(tau, tau_other) == 0:
        return AsymptoticClass(sd, 1.0, False, "diagonal|double-pole-symmetric")
    return AsymptoticClass(sd, 0.0, False, "diagonal|pole-at-branch")


DIRECTIONS = ("boundary1", "boundary2", "marginal1", "marginal2", "diagonal")


def classes(model: ValidatedModel) -> dict[str, AsymptoticClass]:
    return {
        "boundary1": boundary_class(model, 1),
        "boundary2": boundary_class(model, 2),
        "marginal1": marginal_class(model, 1),
        "marginal2": marginal_class(model, 2),
        "diagonal": diagonal_class(model),
    }


@dataclass(frozen=True)
class AnalysisReport:
    stable: bool
    body: dict

    def to_dict(self) -> dict:
        return self.body


def round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round12(v) for v in x]
    return x


def _class_dict(cls: AsymptoticClass) -> dict:
    return {
        "rate": cls.rate,
        "kappa": cls.kappa,
        "periodic": cls.periodic,
        "b": None,
        "b_note": "unknown in [-1,1], conjectured |b| < 1" if cls.periodic else None,
        "provenance": cls.provenance,
        "human": cls.human(),
    }


def full_report(model: ValidatedModel, source: str = "inline") -> AnalysisReport:
    """Aggregate stability, geometry, sigma points, arithmetic profile and
    all five asymptotic classes into one serializable record.  The
    stability, drifts, arithmetic_profile and sigma blocks are `asdict` of
    their records, so those records' field names and order are the keys."""
    d = drifts(model)
    verdict = check_stability(d)
    body: dict = {
        "meta": {"tool": "qbd-tails", "source": source},
        "stability": asdict(verdict),
        "drifts": asdict(d),
        "arithmetic_profile": asdict(arithmetic_profile(model)),
    }
    if not verdict.stable:
        return AnalysisReport(False, round12(body))
    geo = compute_geometry(model)
    body["geometry"] = {
        "category": geo.category,
        "tau": list(geo.tau),
        "axis1": _axis_dict(geo.axis1),
        "axis2": _axis_dict(geo.axis2),
    }
    body["sigma"] = asdict(sigma_points(model))
    body["classes"] = {name: _class_dict(cls) for name, cls in classes(model).items()}
    return AnalysisReport(True, round12(body))


def _axis_dict(ax) -> dict:
    return {
        "u_min": ax.u_min,
        "u_max": ax.u_max,
        "u_max_pt": list(ax.u_max_pt),
        "u_r": None if ax.u_r is None else list(ax.u_r),
        "gamma_face_at_max": ax.gamma_k_at_max,
        "gamma_gap_at_max": ax.gamma_k_at_max - 1.0,
        "u_gamma": list(ax.u_gamma),
    }
