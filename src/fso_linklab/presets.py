"""Named parameter presets used across the command-line sweeps.

Values are plain JSON-compatible dicts so the CLI can layer them under a
config file and per-flag overrides. "paper-figures" is the headline fading
configuration every bundled figure sweep starts from; the beam presets are
a moderate and a strong turbulence link at 1550 nm.
"""

from __future__ import annotations

CHANNEL_KEYS = (
    "alpha", "beta", "rho", "omega", "xi", "delta_phi", "normalize",
    "epsilon", "p_b",
)
BEAM_KEYS = ("w0", "f0", "lambda", "cn2", "obstacle_d")

PRESETS: dict[str, dict] = {
    "paper-figures": {
        "alpha": 4.2,
        "beta": 3.0,
        "rho": 0.75,
        "omega": 0.2,
        "xi": 1.0,
        "delta_phi": 0.0,
        "normalize": True,
        "epsilon": 1e-8,
        "p_b": 0.0,
    },
    "beam-moderate": {
        "w0": 0.01,
        "f0": "inf",
        "lambda": 1550e-9,
        "cn2": 1e-14,
        "obstacle_d": 0.16,
    },
    "beam-strong": {
        "w0": 0.01,
        "f0": "inf",
        "lambda": 1550e-9,
        "cn2": 5e-14,
        "obstacle_d": 0.09,
    },
}

# coupling values the figure sweeps draw their curve families from
RHO_CURVES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
