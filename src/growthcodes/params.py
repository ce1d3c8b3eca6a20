"""Exact code parameters. The module needs no numpy, so the formula-only paths
(Reed-Muller parameters, the rm-third growth table) import none."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CodeParams:
    """Exact [n, k, d] parameters (big integers), optionally with a weight
    bound u; used for codes too large to materialize."""

    n: int
    k: int
    d: int
    u: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.d < 1:
            raise ValueError("parameters must be positive")
        if self.k > self.n:
            raise ValueError(f"dimension {self.k} exceeds length {self.n}")
        if self.u is not None and self.u < 1:
            raise ValueError("u must be positive when set")
