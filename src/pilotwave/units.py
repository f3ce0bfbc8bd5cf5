"""Unit systems.

All internal computation uses natural units (hbar = 1, and c = 1 in the
relativistic modules).
"""

from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class UnitSystem:
    hbar: float = 1.0
    c: float = 1.0
    description: str = "natural units"

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0):
            raise ConfigurationError("hbar and c must be positive")


NATURAL = UnitSystem()
