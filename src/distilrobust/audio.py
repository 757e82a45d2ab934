"""Mono waveforms, WAV file I/O, and the signal primitives behind contamination.

All audio is at SAMPLE_RATE_HZ, the 16 kHz of HuBERT and DistilHuBERT: the
model's 320-sample frames are their 20 ms, and the STFT and noise low-pass are
designed in samples for it. So the rate is checked once, where audio enters
(`read_wav` refuses any other), and nothing downstream carries it.

Everything here is a pure function of its inputs (plus an explicit seed where
randomness is involved); no global RNG state is touched.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateSignalError,
    DistilRobustError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedWavError,
    WavFormatError,
)
from .fileio import atomic_write

SAMPLE_RATE_HZ = 16_000  # the one rate a WAV is read or written at

PCM16_SCALE = 32768  # int16 full scale; read maps q -> q / 32768

NOISE_CUTOFF_HZ = 2000.0  # white noise is low-passed to this narrow band
NOISE_FILTER_ORDER = 4  # Butterworth order of that low-pass

# Responses up to this many taps are convolved directly, longer ones by FFT: on a
# 2-vCPU EPYC with numpy 2.4 the two tie at about 250-300 taps for 16,000 samples.
_DIRECT_MAX_TAPS = 256

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


@dataclass
class Waveform:
    """Mono audio: float samples (nominally in [-1, 1]) at SAMPLE_RATE_HZ."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ShapeError("waveform must be a nonempty 1-D sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise NumericError("waveform samples must be finite")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class RoomImpulseResponse:
    """Finite impulse response simulating a room. Its taps are a read-only copy, so the
    spectrum convolve_rir keeps in `_spectra` cannot go stale."""

    taps: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "taps", np.array(self.taps, dtype=np.float64))
        self.taps.flags.writeable = False
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ShapeError("impulse response must be a nonempty 1-D tap sequence")
        if not np.all(np.isfinite(self.taps)):
            raise NumericError("impulse response taps must be finite")
        if not np.any(self.taps):
            raise DegenerateSignalError("impulse response has no nonzero tap")


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file (PCM16 or float32, any channel count, SAMPLE_RATE_HZ) as mono.

    Multichannel input is averaged down to one channel; 16-bit integers map
    to [-1, 1) through division by 32768.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:  # declared short, or cut short by the end of the file
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, rate, _byte_rate, _block_align, bits = fmt
    if n_channels < 1:
        raise WavFormatError(f"{path}: channel count {n_channels}")
    if rate != SAMPLE_RATE_HZ:
        raise UnsupportedWavError(f"{path}: {rate} Hz not supported ({SAMPLE_RATE_HZ} only)")

    if audio_format == _WAVE_FORMAT_PCM:
        if bits != 16:
            raise UnsupportedWavError(f"{path}: {bits}-bit PCM not supported (16 only)")
        dtype, width = np.dtype("<i2"), 2
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedWavError(f"{path}: {bits}-bit float not supported (32 only)")
        dtype, width = np.dtype("<f4"), 4
    else:
        raise UnsupportedWavError(f"{path}: codec {audio_format} not supported")

    frame_bytes = width * n_channels
    if len(payload) == 0:
        raise WavFormatError(f"{path}: no audio frames")
    if len(payload) % frame_bytes != 0:
        raise WavFormatError(f"{path}: data chunk ends mid-sample")

    raw = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if audio_format == _WAVE_FORMAT_PCM:
        raw = raw / PCM16_SCALE
    mono = raw.reshape(-1, n_channels).mean(axis=1)
    try:
        return Waveform(mono)
    except DistilRobustError as exc:
        raise WavFormatError(f"{path}: {exc}") from exc


def write_wav(w: Waveform, path):
    """Write mono PCM16 at SAMPLE_RATE_HZ; samples outside [-1, 1] are clamped."""
    clamped = np.clip(w.samples, -1.0, 1.0)
    quantized = np.clip(np.rint(clamped * PCM16_SCALE), -32768, 32767).astype("<i2")
    body = quantized.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(body)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, SAMPLE_RATE_HZ,
                        SAMPLE_RATE_HZ * 2, 2, 16),
            b"data",
            struct.pack("<I", len(body)),
        ]
    )
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(body)


def rms(w: Waveform) -> float:
    """Root-mean-square level over the full signal."""
    return float(np.sqrt(np.mean(np.square(w.samples))))


def _fit_to_length(noise: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Crop (random offset) or wrap-tile the noise to exactly n samples."""
    if noise.size > n:
        offset = int(rng.integers(0, noise.size - n + 1))
        return noise[offset : offset + n]
    if noise.size < n:
        reps = -(-n // noise.size)
        return np.tile(noise, reps)[:n]
    return noise


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add noise scaled so the full-utterance RMS power ratio hits snr_db exactly.

    Noise longer than the clean signal is cropped at a seeded random offset;
    shorter noise is tiled by wrapping. The gain applied to the fitted noise is
    rms(clean) / (rms(noise) * 10^(snr_db/20)), so recomputing the SNR from the
    two addends reproduces snr_db up to floating rounding.
    """
    clean_rms = rms(clean)
    if clean_rms == 0.0:
        raise DegenerateSignalError("clean signal has zero RMS")
    rng = np.random.default_rng(seed)
    fitted = _fit_to_length(noise.samples, len(clean), rng)
    noise_rms = float(np.sqrt(np.mean(np.square(fitted))))
    if noise_rms == 0.0:
        raise DegenerateSignalError("noise signal has zero RMS over the mixed span")
    gain = clean_rms / (noise_rms * 10.0 ** (snr_db / 20.0))
    return Waveform(clean.samples + gain * fitted)


def _fft_size(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c at or above n, a size numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_head(x: np.ndarray, taps: np.ndarray, spectra: dict | None = None) -> np.ndarray:
    """The first len(x) samples of the linear convolution of x with taps.

    Up to _DIRECT_MAX_TAPS taps it is np.convolve; longer responses are multiplied
    in the frequency domain at a 5-smooth size (Stockham 1966), which is exact only
    to rounding. The taps' spectrum is read from `spectra` under (taps kept, FFT size),
    or replaces what it holds: training convolves at one crop length, while the
    lengths of an `augment` run's files rarely repeat.
    """
    n = x.size
    if taps.size <= _DIRECT_MAX_TAPS:
        return np.convolve(x, taps)[:n]
    taps = taps[:n]  # later taps reach no output sample that is kept
    size = _fft_size(n + taps.size - 1)
    spectra = {} if spectra is None else spectra
    if (taps.size, size) not in spectra:
        spectra.clear()
        spectra[taps.size, size] = np.fft.rfft(taps, size)
    return np.fft.irfft(np.fft.rfft(x, size) * spectra[taps.size, size], size)[:n]


def convolve_rir(clean: Waveform, rir: RoomImpulseResponse) -> Waveform:
    """Convolve with a room impulse response, keep the input length and level.

    The full linear convolution is truncated to the input length and rescaled
    so the output RMS equals the input RMS. Responses of more than
    _DIRECT_MAX_TAPS taps are convolved by FFT, within about 1e-15 of the
    direct sum; shorter ones directly, so a unit-impulse response is the exact
    identity.
    """
    wet = _convolve_head(clean.samples, rir.taps, rir._spectra)
    wet_rms = float(np.sqrt(np.mean(np.square(wet))))
    if wet_rms == 0.0:
        raise DegenerateSignalError("convolution output has zero RMS")
    return Waveform(wet * (rms(clean) / wet_rms))


@lru_cache
def _lowpass_taps() -> np.ndarray:
    """Read-only impulse response of the Butterworth low-pass that shapes white noise.

    Digital poles z_k come from the analog ones by a bilinear transform prewarped to
    NOISE_CUTOFF_HZ. The response (1 + z^-1)^N / prod(1 - z_k z^-1), 1 at DC, is inverted
    from an FFT grid and cut at the first n taps with max|z_k|^n < 1e-17.
    """
    fs, order = float(SAMPLE_RATE_HZ), NOISE_FILTER_ORDER
    warped = 2.0 * fs * math.tan(math.pi * NOISE_CUTOFF_HZ / fs)
    analog = warped * np.exp(1j * np.pi * (2 * np.arange(order) + order + 1) / (2 * order))
    poles = (2.0 * fs + analog) / (2.0 * fs - analog)
    n = math.floor(-17.0 / math.log10(np.abs(poles).max())) + 1
    z_inv = np.exp(-1j * np.pi * np.arange(n + 1) / n)  # rfft grid of 2n points
    response = (1.0 + z_inv) ** order / np.prod(1.0 - poles[:, None] * z_inv, axis=0)
    taps = np.fft.irfft(response / response[0].real, 2 * n)[:n]
    taps.flags.writeable = False
    return taps


def white_noise(length: int, seed: int) -> Waveform:
    """Seeded standard-normal noise through the 4th-order 2 kHz Butterworth low-pass;
    a fixed seed gives identical output."""
    if length <= 0:
        raise ParameterError(f"noise length must be positive, got {length}")
    samples = np.random.default_rng(seed).standard_normal(length)
    return Waveform(_convolve_head(samples, _lowpass_taps()))
