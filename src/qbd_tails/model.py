"""Double QBD models: per-face transition kernels, validation, drifts,
stability, and arithmetic (parity) structure.

A model is a skip-free reflecting random walk on the nonnegative quadrant
whose increment law is homogeneous on each of four faces: the interior,
the two coordinate axes, and the origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

FACES = ("interior", "boundary1", "boundary2", "origin")

# mass budget checked at construction time
MASS_TOL = 1e-12

# allowed increments per face (skip-free, no exits through the face)
_FACE_OK = {
    "interior": lambda di, dj: True,
    "boundary1": lambda di, dj: dj >= 0,
    "boundary2": lambda di, dj: di >= 0,
    "origin": lambda di, dj: di >= 0 and dj >= 0,
}


class ModelFileError(ValueError):
    """A model document could not be turned into four valid kernels."""


class ValidationError(ValueError):
    """A structural assumption fails; `condition` names which one."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class UnstableModelError(RuntimeError):
    """An operation that requires a stationary distribution was asked of
    a model that has none."""


def _coerce_prob(value) -> float:
    """Accept a probability as a number or a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ModelFileError(f"bad probability value {value!r}")
    try:  # a literal too large for a float overflows
        p = float(Fraction(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ModelFileError(f"bad probability literal {value!r}") from exc
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        raise ModelFileError(f"probability {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class TransitionKernel:
    """Increment distribution of one face.

    `entries` holds (di, dj, mass) sorted by increment with zero-mass
    entries dropped, so the support is exactly the listed increments.
    """

    face: str
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.face not in FACES:
            raise ModelFileError(f"unknown face name {self.face!r}")
        ok = _FACE_OK[self.face]
        total = 0.0
        seen = set()
        for di, dj, p in self.entries:
            if abs(di) > 1 or abs(dj) > 1:
                raise ModelFileError(
                    f"{self.face}: increment ({di},{dj}) outside U (skip-free)")
            if not ok(di, dj):
                raise ModelFileError(
                    f"{self.face}: increment ({di},{dj}) leaves the quadrant")
            if (di, dj) in seen:
                raise ModelFileError(
                    f"{self.face}: duplicate increment ({di},{dj})")
            seen.add((di, dj))
            total += p
        if abs(total - 1.0) > MASS_TOL:
            raise ModelFileError(f"{self.face}: mass {total:.12g} != 1")

    @classmethod
    def from_probs(cls, face: str, probs: Mapping[tuple[int, int], float] | Iterable):
        items = probs.items() if isinstance(probs, Mapping) else probs
        entries = []
        for (di, dj), p in items:
            if not (type(di) is int and type(dj) is int):  # a bool is an int too
                raise ModelFileError(f"{face}: bad increment ({di!r}, {dj!r})")
            p = _coerce_prob(p)
            if p > 0.0:
                entries.append((di, dj, p))
        return cls(face, tuple(sorted(entries)))

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple((di, dj) for di, dj, _ in self.entries)

    def mean(self) -> tuple[float, float]:
        mx = sum(di * p for di, _, p in self.entries)
        my = sum(dj * p for _, dj, p in self.entries)
        return (mx, my)

    def matrix(self) -> np.ndarray:
        """3x3 mass matrix indexed by (di+1, dj+1)."""
        m = np.zeros((3, 3))
        for di, dj, p in self.entries:
            m[di + 1, dj + 1] = p
        return m

    def transposed(self, face: str) -> "TransitionKernel":
        return TransitionKernel(
            face, tuple(sorted((dj, di, p) for di, dj, p in self.entries)))


@dataclass(frozen=True)
class ValidatedModel:
    """The four face kernels of a model, as `validate` returns them once it
    has checked them."""

    interior: TransitionKernel
    boundary1: TransitionKernel
    boundary2: TransitionKernel
    origin: TransitionKernel

    def kernel(self, face: str) -> TransitionKernel:
        return getattr(self, face)

    def to_document(self) -> dict:
        return {
            face: [[di, dj, p] for di, dj, p in self.kernel(face).entries]
            for face in FACES
        }


@dataclass(frozen=True)
class DriftSet:
    m: tuple[float, float]
    m1: tuple[float, float]
    m2: tuple[float, float]
    m1_perp: tuple[float, float]
    m2_perp: tuple[float, float]


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    matched_condition: str  # interior-both-negative | axis1-drift-nonnegative |
    #                         axis2-drift-nonnegative | none
    inner_product_face1: float  # <m, m1_perp>
    inner_product_face2: float  # <m, m2_perp>


@dataclass(frozen=True)
class ArithmeticProfile:
    va: bool  # non-arithmetic interior (support not X-shaped)
    vb: bool  # non-arithmetic boundary 1
    vc: bool  # non-arithmetic boundary 2
    b_case: str  # "B1" | "B2"
    c_case: str  # "C1" | "C2"
    m1_2_zero: bool
    m2_1_zero: bool


_X_INTERIOR = {(1, 1), (-1, 1), (0, 0), (1, -1), (-1, -1)}
_X_BOUNDARY1 = {(1, 1), (0, 0), (-1, 1)}
_X_BOUNDARY2 = {(1, 1), (0, 0), (1, -1)}


def parse_model(text: str) -> dict[str, TransitionKernel]:
    """Parse a JSON model document into the four face kernels.

    The document maps each face name to a list of [di, dj, prob] triples;
    probabilities may be numbers or decimal strings.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        raise ModelFileError(f"syntax error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    extra = set(doc) - set(FACES)
    if extra:
        raise ModelFileError(f"unknown face name {sorted(extra)[0]!r}")
    missing = set(FACES) - set(doc)
    if missing:
        raise ModelFileError(f"missing face {sorted(missing)[0]!r}")
    kernels = {}
    for face in FACES:
        triples = doc[face]
        if not isinstance(triples, list):
            raise ModelFileError(f"{face}: expected a list of [di, dj, prob]")
        items = []
        for t in triples:
            if not (isinstance(t, list) and len(t) == 3):
                raise ModelFileError(f"{face}: bad entry {t!r}")
            items.append(((t[0], t[1]), t[2]))
        kernels[face] = TransitionKernel.from_probs(face, items)
    return kernels


def _not_in_half_plane(support) -> bool:
    """True when the origin is interior to the convex hull of the support,
    i.e. the largest circular gap between increment directions is < pi."""
    vs = [v for v in support if v != (0, 0)]
    if not vs:
        return False
    angles = sorted(math.atan2(dj, di) for di, dj in vs)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
    return max(gaps) < math.pi - 1e-9


def grid_steps(kernels: Mapping[str, TransitionKernel], n: int) -> np.ndarray:
    """Step masses of the reflecting chain on the grid {0..n-1}^2: a[di + 1,
    dj + 1, i, j] is the mass of the step (i, j) -> (i + di, j + dj) in the
    kernel of the face of (i, j), or zero where the step leaves the grid."""
    a = np.empty((3, 3, n, n))
    a[:, :, 1:, 1:] = kernels["interior"].matrix()[:, :, None, None]
    a[:, :, 1:, 0] = kernels["boundary1"].matrix()[:, :, None]
    a[:, :, 0, 1:] = kernels["boundary2"].matrix()[:, :, None]
    a[:, :, 0, 0] = kernels["origin"].matrix()
    a[0, :, 0] = a[2, :, -1] = 0.0
    a[:, 0, :, 0] = a[:, 2, :, -1] = 0.0
    return a


_WINDOW = 7  # reflecting-chain reachability window {0..6}^2


def _positive_power(m: np.ndarray, squarings: int) -> bool:
    """True when m^(2^squarings) > 0 entrywise, for a 0/1 matrix m; entries
    are clamped to 1 after each squaring, so only the pattern is kept."""
    for _ in range(squarings):
        m = np.minimum(m @ m, 1.0)
    return bool(m.all())


def _window_irreducible_aperiodic(kernels) -> tuple[bool, bool]:
    """(irreducible, aperiodic) for the chain on the window, from its
    adjacency matrix A of size s = 49: irreducible iff (I + A)^64 > 0, as
    64 >= s - 1; primitive (irreducible and aperiodic) iff A^4096 > 0, as
    4096 >= (s - 1)^2 + 1 (Wielandt)."""
    d, si, sj = np.nonzero(grid_steps(kernels, _WINDOW).reshape(9, _WINDOW, _WINDOW))
    src = si * _WINDOW + sj
    adj = np.zeros((_WINDOW ** 2, _WINDOW ** 2))
    adj[src, src + (d // 3 - 1) * _WINDOW + d % 3 - 1] = 1.0
    if not _positive_power(adj + np.eye(len(adj)), 6):
        return False, False
    return True, _positive_power(adj, 12)


def validate(kernels: Mapping[str, TransitionKernel]) -> ValidatedModel:
    """Check the structural assumptions and return a ValidatedModel.

    Over all 512 interior supports the half-plane test implies rank 2 and a
    +1 and a -1 step in each coordinate. The reflecting chain is checked on
    the window {0..6}^2, from the pattern of `grid_steps(kernels, 7)`.
    Raises ValidationError naming the violated condition:
    interior-walk-irreducible, reflecting-chain-irreducible,
    reflecting-chain-aperiodic, or nonzero-mean-drift.
    """
    for face in FACES:
        if face not in kernels:
            raise ModelFileError(f"missing face {face!r}")
    interior = kernels["interior"]
    support = interior.support
    if not _not_in_half_plane(support):
        raise ValidationError(
            "interior-walk-irreducible",
            "interior-walk-irreducible: unrestricted walk is not irreducible "
            f"(support {list(support)})")
    irr, aper = _window_irreducible_aperiodic(kernels)
    if not irr:
        raise ValidationError(
            "reflecting-chain-irreducible",
            "reflecting-chain-irreducible: reflected chain is not a single "
            "communicating class on the test window")
    if not aper:
        raise ValidationError(
            "reflecting-chain-aperiodic",
            "reflecting-chain-aperiodic: reflected chain is periodic")
    mx, my = interior.mean()
    if mx == 0.0 and my == 0.0:
        raise ValidationError(
            "nonzero-mean-drift",
            "nonzero-mean-drift: interior mean increment is (0, 0)")
    return ValidatedModel(
        interior=interior,
        boundary1=kernels["boundary1"],
        boundary2=kernels["boundary2"],
        origin=kernels["origin"],
    )


def load_model(text: str) -> ValidatedModel:
    return validate(parse_model(text))


def drifts(model: ValidatedModel) -> DriftSet:
    m = model.interior.mean()
    m1 = model.boundary1.mean()
    m2 = model.boundary2.mean()
    return DriftSet(
        m=m,
        m1=m1,
        m2=m2,
        m1_perp=(m1[1], -m1[0]),
        m2_perp=(-m2[1], m2[0]),
    )


def check_stability(d: DriftSet) -> StabilityVerdict:
    """Three-way drift test for existence of the stationary distribution."""
    m1x, m2y = d.m
    ip1 = d.m[0] * d.m1_perp[0] + d.m[1] * d.m1_perp[1]
    ip2 = d.m[0] * d.m2_perp[0] + d.m[1] * d.m2_perp[1]
    m1_2 = d.m1[1]
    m1_1 = d.m1[0]
    m2_1 = d.m2[0]
    m2_2 = d.m2[1]
    if m1x < 0 and m2y < 0 and ip1 < 0 and ip2 < 0:
        return StabilityVerdict(True, "interior-both-negative", ip1, ip2)
    if m1x >= 0 and m2y < 0 and ip1 < 0 and (m2_1 != 0.0 or m2_2 < 0):
        return StabilityVerdict(True, "axis1-drift-nonnegative", ip1, ip2)
    if m1x < 0 and m2y >= 0 and ip2 < 0 and (m1_2 != 0.0 or m1_1 < 0):
        return StabilityVerdict(True, "axis2-drift-nonnegative", ip1, ip2)
    return StabilityVerdict(False, "none", ip1, ip2)


def require_stable(model: ValidatedModel) -> None:
    if not check_stability(drifts(model)).stable:
        raise UnstableModelError("model has no stationary distribution")


def arithmetic_profile(model: ValidatedModel) -> ArithmeticProfile:
    """Support-based parity flags.

    The tie quantities (vertical boundary-1 drift, horizontal boundary-2
    drift) are sums of nonnegative masses, so "equals zero" is a support
    test and exact on the stored floats.
    """
    va = not set(model.interior.support) <= _X_INTERIOR
    vb = not set(model.boundary1.support) <= _X_BOUNDARY1
    vc = not set(model.boundary2.support) <= _X_BOUNDARY2
    m1_2_zero = all(dj != 1 for _, dj in model.boundary1.support)
    m2_1_zero = all(di != 1 for di, _ in model.boundary2.support)
    b_case = "B1" if (vb or m1_2_zero) else "B2"
    c_case = "C1" if (vc or m2_1_zero) else "C2"
    return ArithmeticProfile(va, vb, vc, b_case, c_case, m1_2_zero, m2_1_zero)


def swap_coordinates(model: ValidatedModel) -> ValidatedModel:
    """Exchange the roles of the two coordinates (an involution)."""
    return ValidatedModel(
        interior=model.interior.transposed("interior"),
        boundary1=model.boundary2.transposed("boundary1"),
        boundary2=model.boundary1.transposed("boundary2"),
        origin=model.origin.transposed("origin"),
    )
