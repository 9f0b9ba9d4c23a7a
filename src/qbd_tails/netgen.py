"""Model generators: a two-node network with simultaneous arrivals and
probabilistic routing, and an independent pair of M/M/1 queues whose
product-form stationary distribution serves as ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from .model import TransitionKernel, ValidatedModel, validate


@dataclass(frozen=True)
class JacksonSimParams:
    lam: float  # simultaneous external arrival rate
    mu1: float
    mu2: float
    p: float  # routing probability node 1 -> node 2
    q: float  # routing probability node 2 -> node 1

    def __post_init__(self):
        if self.lam <= 0 or self.mu1 <= 0 or self.mu2 <= 0:
            raise ValueError("rates must be positive")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("routing probabilities must lie in [0, 1]")

    def stable(self) -> bool:
        d = 1.0 - self.p * self.q
        return (self.lam * (1.0 + self.q) / d < self.mu1
                and self.lam * (1.0 + self.p) / d < self.mu2)


def jackson_model(lam, mu1, mu2, p, q) -> ValidatedModel:
    """Uniformized chain of the two-node simultaneous-arrival network,
    normalized so the total event rate is one."""
    prm = JacksonSimParams(float(lam), float(mu1), float(mu2), float(p), float(q))
    s = prm.lam + prm.mu1 + prm.mu2
    lam_, mu1_, mu2_ = prm.lam / s, prm.mu1 / s, prm.mu2 / s
    interior = {
        (1, 1): lam_,
        (-1, 1): mu1_ * prm.p,
        (1, -1): mu2_ * prm.q,
        (-1, 0): mu1_ * (1.0 - prm.p),
        (0, -1): mu2_ * (1.0 - prm.q),
    }
    boundary1 = {
        (1, 1): lam_,
        (-1, 1): mu1_ * prm.p,
        (-1, 0): mu1_ * (1.0 - prm.p),
        (0, 0): mu2_,
    }
    boundary2 = {
        (1, 1): lam_,
        (1, -1): mu2_ * prm.q,
        (0, -1): mu2_ * (1.0 - prm.q),
        (0, 0): mu1_,
    }
    # no service events can fire at the empty state
    origin = {(1, 1): lam_, (0, 0): mu1_ + mu2_}
    return validate({
        "interior": TransitionKernel.from_probs("interior", interior),
        "boundary1": TransitionKernel.from_probs("boundary1", boundary1),
        "boundary2": TransitionKernel.from_probs("boundary2", boundary2),
        "origin": TransitionKernel.from_probs("origin", origin),
    })


def independent_mm1(l1, m1, l2, m2) -> ValidatedModel:
    """Uniformized pair of independent M/M/1 queues; blocked service fires
    as a self-loop.  Stationary law is product-form geometric with ratios
    l1/m1 and l2/m2."""
    l1, m1, l2, m2 = map(float, (l1, m1, l2, m2))
    if min(l1, m1, l2, m2) <= 0.0:
        raise ValueError("rates must be positive")
    if l1 >= m1 or l2 >= m2:
        raise ValueError("need l1 < m1 and l2 < m2 for stability")
    rest = 1.0 - (l1 + m1 + l2 + m2)
    if rest < -1e-12:
        raise ValueError("rates must sum to at most 1")
    rest = max(rest, 0.0)
    interior = {(1, 0): l1, (-1, 0): m1, (0, 1): l2, (0, -1): m2, (0, 0): rest}
    boundary1 = {(1, 0): l1, (-1, 0): m1, (0, 1): l2, (0, 0): m2 + rest}
    boundary2 = {(1, 0): l1, (0, 1): l2, (0, -1): m2, (0, 0): m1 + rest}
    origin = {(1, 0): l1, (0, 1): l2, (0, 0): m1 + m2 + rest}
    return validate({
        "interior": TransitionKernel.from_probs("interior", interior),
        "boundary1": TransitionKernel.from_probs("boundary1", boundary1),
        "boundary2": TransitionKernel.from_probs("boundary2", boundary2),
        "origin": TransitionKernel.from_probs("origin", origin),
    })
