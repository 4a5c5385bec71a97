"""OFDM sensing waveform: subcarrier grid, low-crest-factor pulse synthesis,
and contiguous subcarrier-subset selection.

The pulse carries no data; all active subcarriers have unit magnitude and a
deterministic quadratic (Schroeder-style) phase ramp that keeps the multitone
peak-to-average power ratio low. Subcarriers are constrained to lie exactly on
the DFT grid of the sampled pulse so that per-subcarrier channel estimates are
free of inter-carrier interference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import SPEED_OF_LIGHT


@dataclass
class WaveformSpec:
    """Static description of the transmitted OFDM pulse.

    The active band is ``active_count`` contiguous subcarriers centred on the
    carrier (``None``: all of them); for even counts the block centre sits
    half a subcarrier spacing below the carrier (see
    ``effective_carrier_hz``). Centred bands are nested: a narrower count
    selects a contiguous sub-range of a wider one.
    """

    carrier_frequency_hz: float = 26.5e9
    num_subcarriers: int = 1024
    subcarrier_spacing_hz: float = 1.0e6
    samples_per_pulse: int = 2500
    pulse_duration_s: float = 1.0e-6
    active_count: int | None = None

    def __post_init__(self):
        for name in ("carrier_frequency_hz", "pulse_duration_s", "subcarrier_spacing_hz"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if self.samples_per_pulse < self.num_subcarriers:
            raise ValueError("samples_per_pulse must be >= num_subcarriers")

        # two finite factors can still overflow to inf, which round() refuses
        cycles = self.subcarrier_spacing_hz * self.pulse_duration_s
        if (not cycles < math.inf or abs(cycles - round(cycles)) > 1e-9 * max(1.0, cycles)
                or round(cycles) < 1):
            raise ValueError(
                "subcarrier_spacing_hz must be an integer multiple of "
                "1/pulse_duration_s so subcarriers fall on the pulse DFT grid"
            )
        if self.num_subcarriers * round(cycles) > self.samples_per_pulse:
            raise ValueError("subcarrier band exceeds the sampled bandwidth")
        # every subcarrier slot above 0 Hz, so every band's centre and wavelength are positive
        below_hz = (self.num_subcarriers // 2) * self.subcarrier_spacing_hz
        if not self.carrier_frequency_hz > below_hz:
            raise ValueError(f"carrier_frequency_hz must exceed {below_hz:g}, the lowest "
                             f"subcarrier's offset below it, not {self.carrier_frequency_hz:g}")

        if self.active_count is None:
            self.active_count = self.num_subcarriers
        if not 1 <= self.active_count <= self.num_subcarriers:
            raise ValueError(
                f"active_count must be in [1, {self.num_subcarriers}], got {self.active_count}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def sample_rate_hz(self) -> float:
        return self.samples_per_pulse / self.pulse_duration_s

    @property
    def grid_step(self) -> int:
        """DFT bins per subcarrier spacing."""
        return round(self.subcarrier_spacing_hz * self.pulse_duration_s)

    @property
    def active_indices(self) -> np.ndarray:
        """Subcarrier slots of the band: the one place the centring rule lives."""
        start = self.num_subcarriers // 2 - self.active_count // 2
        return np.arange(start, start + self.active_count)

    @property
    def active_bins(self) -> np.ndarray:
        """Signed DFT bin index of each active subcarrier (0 = carrier)."""
        return (self.active_indices - self.num_subcarriers // 2) * self.grid_step

    def baseband_frequencies_hz(self) -> np.ndarray:
        """Frequency offset of each active subcarrier from the carrier."""
        return self.active_bins / self.pulse_duration_s

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.active_count * self.subcarrier_spacing_hz

    @property
    def effective_carrier_hz(self) -> float:
        """Center of the occupied band (carrier - spacing/2 for even counts)."""
        return self.carrier_frequency_hz + float(np.mean(self.baseband_frequencies_hz()))

    @property
    def effective_wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.effective_carrier_hz


@dataclass
class BasebandSymbol:
    """One transmitted pulse in both domains.

    ``freq_domain`` holds one complex value per subcarrier slot (zeros on
    inactive slots); ``time_domain`` is the interpolated pulse, scaled so the
    energies of both domains are equal.
    """

    spec: WaveformSpec
    freq_domain: np.ndarray
    time_domain: np.ndarray


def build_waveform(spec: WaveformSpec) -> BasebandSymbol:
    """Synthesize the pulse for ``spec``.

    Active subcarriers get unit magnitude and the quadratic phase profile
    phi_i = pi * i^2 / A over the A active subcarriers; the time-domain pulse
    is the inverse DFT of the band embedded in the full sampled grid.
    Deterministic: identical specs produce bit-identical symbols.
    """
    idx = spec.active_indices
    count = idx.size
    phases = np.pi * np.arange(count) ** 2 / count
    freq = np.zeros(spec.num_subcarriers, dtype=complex)
    freq[idx] = np.exp(1j * phases)

    grid = np.zeros(spec.samples_per_pulse, dtype=complex)
    grid[spec.active_bins % spec.samples_per_pulse] = freq[idx]
    time = np.fft.ifft(grid) * math.sqrt(spec.samples_per_pulse)
    return BasebandSymbol(spec=spec, freq_domain=freq, time_domain=time)


def hann(n: int) -> np.ndarray:
    """Periodic Hann taper of ``n`` taps, ``[1.0]`` for one: the only taper function."""
    if n <= 1:
        return np.ones(n)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def select_subcarriers(spec: WaveformSpec, count: int) -> WaveformSpec:
    """Return ``spec`` with its active band narrowed or widened to ``count``
    centred subcarriers (``ValueError`` outside [1, num_subcarriers]).

    Spacing is kept fixed; deselected subcarriers are zeroed, so the occupied
    bandwidth is count * spacing while the band center stays on the carrier.
    """
    return replace(spec, active_count=count)
