"""Physical constants, unit conversions and the config-number check.

Gradient strength is stored internally in T/m. The noisy-gate sweep also
accepts kHz/cm (gamma-folded frequency gradient, common on NMR plots), which
converts through the gyromagnetic ratio of the spin system.
"""

import math
import numbers

# Proton gyromagnetic ratio, rad s^-1 T^-1 (CODATA 2018).
GAMMA_PROTON = 2.6752218744e8


def khz_per_cm_to_t_per_m(f: float, gamma: float = GAMMA_PROTON) -> float:
    """Frequency gradient in kHz/cm -> field gradient in T/m.

    f kHz/cm means the Larmor frequency shifts by f kHz per cm, i.e.
    gamma * grad / (2 pi) = f * 1e3 / 1e-2 Hz/m.
    """
    return 2 * math.pi * f * 1e3 * 1e2 / gamma


def is_real(value) -> bool:
    """Whether a config value is a number that a float can hold: a bool, a
    string or an integer beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True
