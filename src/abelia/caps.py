"""Size caps that keep every check at desk scale.

Checks that would otherwise explode combinatorially refuse inputs above
these limits instead of silently truncating.  "Refuse" means raising
``CapExceeded``, which callers surface as an "unknown" outcome, distinct
from a definitive refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Caps:
    # largest carrier for congruence generation (cg and everything built on it)
    cg: int = 256
    # largest carrier for full congruence lattices (all_congruences)
    lattice: int = 12
    # most congruences in one lattice; the build stops as soon as it passes
    # this (P10 has 115,975 congruences, P11 678,570)
    lattice_count: int = 200_000
    # homomorphism-enumeration condition checks: largest source / target carrier
    hom_src: int = 9
    hom_tgt: int = 4
    # internal-subtraction search: largest product carrier |A|**2, and most
    # tables in one search (P4 has 4**9 = 262,144, P5 5**16)
    structure_src: int = 36
    structure_tables: int = 1_048_576
    # free algebras: largest exponent |A|**k and largest generated carrier
    free_positions: int = 16
    free_carrier: int = 4096
    # clone generation: most distinct term-operation tables kept.  The leaves
    # count toward it and are always kept, so max(cap, leaves) are kept; a
    # closure at the cap with no new table left is still complete
    clone_tables: int = 100_000

    @classmethod
    def from_env(cls, text: str | None) -> "Caps":
        """Parse an override string like "cg=256,lattice=12,hom_src=9,hom_tgt=4".

        Unset keys keep their defaults.  Unknown or repeated keys,
        non-integer values and negative values raise ValueError.
        """
        if not text:
            return cls()
        known = {f.name for f in fields(cls)}
        overrides: dict[str, int] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ValueError(f"unknown cap {key!r} in {text!r}")
            if key in overrides:
                raise ValueError(f"cap {key!r} is set twice in {text!r}")
            try:
                overrides[key] = int(value)
            except ValueError:
                raise ValueError(f"cap {key!r} needs an integer, got {value!r}") from None
            if overrides[key] < 0:
                raise ValueError(f"cap {key!r} must not be negative, got {overrides[key]}")
        return cls(**overrides)


DEFAULT_CAPS = Caps()
