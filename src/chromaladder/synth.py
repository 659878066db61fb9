"""Seeded synthetic rate-quality-complexity datasets.

Generates desk-scale measurement corpora with controllable structure so the
optimizer and the delta metrics can be exercised without running any codec.
Quality follows a saturating log curve per (resolution, chroma) pair,

    score(b) = ceiling - slope / ln(1 + b / knee),

and decoding time an affine rate model scaled by per-resolution base cost and
per-chroma factor,

    time(b) = base * chroma_factor * (1 + rate_slope * b).

The default chroma factors put full-fidelity chroma at twice the decoding
time of 4:2:0, matching what slow software decoding of the three formats
shows. Low-fidelity formats get smaller quality slopes, so they win at low
bitrates and the full-fidelity formats only pull ahead near the top of the
ladder; per-title perturbation of slopes and knees moves those crossover
points around, which is what makes per-title optimization worthwhile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, Mapping, TextIO

from .errors import InvalidSpec
from .measurements import (
    ChromaFormat,
    MeasurementRecord,
    PLAUSIBLE_RANGE,
    QualityMetric,
    QualityScore,
    Resolution,
    TitleDataset,
)

# Standard HLS-style target set (kbps) used by the default corpus.
DEFAULT_BITRATES_KBPS = (
    600.0,
    900.0,
    1600.0,
    2400.0,
    3400.0,
    4500.0,
    5800.0,
    8100.0,
    11600.0,
    16800.0,
)

DEFAULT_SEED = 20250809


@dataclass(frozen=True)
class QualityModel:
    """Saturating rate-quality curve: ceiling - slope / ln(1 + kbps/knee)."""

    ceiling: float
    slope: float
    knee_kbps: float

    def score(self, kbps: float) -> float:
        return self.ceiling - self.slope / math.log1p(kbps / self.knee_kbps)


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    titles: int
    resolutions: tuple[int, ...]
    chromas: tuple[ChromaFormat, ...]
    targets_kbps: tuple[float, ...]
    quality: Mapping[tuple[int, ChromaFormat], QualityModel]
    time_base_s: Mapping[int, float]
    time_chroma_factor: Mapping[ChromaFormat, float]
    time_rate_slope: float
    noise: float = 0.03
    jitter: float = 0.05
    title_variation: float = 0.06
    metric: QualityMetric = QualityMetric.CVVDP_JOD

    def __post_init__(self):
        if self.titles < 1:
            raise InvalidSpec("titles must be >= 1")
        if not self.resolutions or any(h <= 0 for h in self.resolutions):
            raise InvalidSpec("resolutions must be positive")
        if len(set(self.resolutions)) != len(self.resolutions):
            raise InvalidSpec("resolutions must be distinct")
        if not self.chromas or len(set(self.chromas)) != len(self.chromas):
            raise InvalidSpec("chromas must be non-empty and distinct")
        if not self.targets_kbps or any(b <= 0 for b in self.targets_kbps):
            raise InvalidSpec("targets must be positive")
        if any(
            b2 <= b1 for b1, b2 in zip(self.targets_kbps, self.targets_kbps[1:])
        ):
            raise InvalidSpec("targets must be strictly increasing")
        if not 0 <= self.jitter < 1:
            raise InvalidSpec("jitter must be in [0, 1)")
        if not 0 <= self.noise < 1:
            raise InvalidSpec("noise must be in [0, 1)")
        if not 0 <= self.title_variation < 1:
            raise InvalidSpec("title_variation must be in [0, 1)")
        if self.time_rate_slope < 0:
            raise InvalidSpec("time_rate_slope must be >= 0")
        for r in self.resolutions:
            if self.time_base_s.get(r, 0) <= 0:
                raise InvalidSpec(f"time_base_s missing or non-positive for {r}")
            for c in self.chromas:
                model = self.quality.get((r, c))
                if model is None:
                    raise InvalidSpec(f"quality model missing for ({r}, {c.value})")
                if model.slope <= 0 or model.knee_kbps <= 0:
                    raise InvalidSpec(f"quality model for ({r}, {c.value}) not positive")
        for c in self.chromas:
            if self.time_chroma_factor.get(c, 0) <= 0:
                raise InvalidSpec(f"time_chroma_factor missing for {c.value}")
        # Quality ceilings must not decrease with resolution or chroma fidelity,
        # and chroma decode cost must not decrease with fidelity.
        for c in self.chromas:
            ceilings = [self.quality[(r, c)].ceiling for r in sorted(self.resolutions)]
            if any(b < a for a, b in zip(ceilings, ceilings[1:])):
                raise InvalidSpec("quality ceiling decreases with resolution")
        by_rank = sorted(self.chromas, key=lambda c: c.fidelity_rank)
        for r in self.resolutions:
            ceilings = [self.quality[(r, c)].ceiling for c in by_rank]
            if any(b < a for a, b in zip(ceilings, ceilings[1:])):
                raise InvalidSpec("quality ceiling decreases with chroma fidelity")
        factors = [self.time_chroma_factor[c] for c in by_rank]
        if any(b < a for a, b in zip(factors, factors[1:])):
            raise InvalidSpec("time_chroma_factor decreases with chroma fidelity")


def default_spec(
    seed: int = DEFAULT_SEED,
    titles: int = 15,
    metric: QualityMetric = QualityMetric.CVVDP_JOD,
) -> SynthSpec:
    """The shipped corpus: two resolutions, three chroma formats, ten targets.

    Full-chroma decode cost is twice the 4:2:0 cost; 4:2:0 has better quality
    than 4:4:4 at the low end and the order flips near the top of the ladder.
    """
    if metric is QualityMetric.CVVDP_JOD:
        base_q, res_gain, unit = 8.2, 0.6, 1.0
    else:
        base_q, res_gain, unit = 38.0, 3.0, 5.0
    # Chroma quality gains are small against the per-title quality span, so the
    # extra decode cost of high-fidelity chroma flips the per-rung winner at
    # trade-off weights within the swept [0, 0.08] range, top rungs last.
    chroma_gain = {ChromaFormat.C420: 0.0, ChromaFormat.C422: 0.04, ChromaFormat.C444: 0.065}
    slope_res = {1080: 2.2, 2160: 3.2}
    slope_chroma = {ChromaFormat.C420: 1.0, ChromaFormat.C422: 1.02, ChromaFormat.C444: 1.03}
    knee_res = {1080: 150.0, 2160: 300.0}
    knee_chroma = {ChromaFormat.C420: 1.0, ChromaFormat.C422: 1.05, ChromaFormat.C444: 1.10}
    quality = {
        (r, c): QualityModel(
            ceiling=base_q + (res_gain if r == 2160 else 0.0) + chroma_gain[c] * unit,
            slope=slope_res[r] * slope_chroma[c] * unit,
            knee_kbps=knee_res[r] * knee_chroma[c],
        )
        for r in (1080, 2160)
        for c in ChromaFormat
    }
    return SynthSpec(
        seed=seed,
        titles=titles,
        resolutions=(1080, 2160),
        chromas=tuple(ChromaFormat),
        targets_kbps=DEFAULT_BITRATES_KBPS,
        quality=quality,
        time_base_s={1080: 0.040, 2160: 0.155},
        time_chroma_factor={
            ChromaFormat.C420: 1.0,
            ChromaFormat.C422: 1.4,
            ChromaFormat.C444: 2.0,
        },
        time_rate_slope=1.5e-5,
        metric=metric,
    )


def sparse_spec(seed: int = DEFAULT_SEED, titles: int = 15) -> SynthSpec:
    """Corpus with 15% bitrate jitter so encodes regularly miss the ±10% window."""
    return replace(default_spec(seed=seed, titles=titles), jitter=0.15)


def generate(spec: SynthSpec) -> list[TitleDataset]:
    """Deterministic function of the spec; per-title sub-seeds keep titles
    independent of generation order."""
    return [_generate_title(spec, i) for i in range(spec.titles)]


def titles_in_order(spec: SynthSpec) -> Iterator[TitleDataset]:
    """The titles of ``generate(spec)`` one at a time, each made when it is
    reached, in title-id order, as ``serialize_dataset`` writes them:
    synth099 < synth100 < synth1000 < synth101."""
    return map(partial(_generate_title, spec), _in_title_order(spec.titles))


def _title_id(index: int) -> str:
    return f"synth{index:03d}"


def _in_title_order(n: int, indices: range = range(1000)) -> Iterator[int]:
    """``range(n)`` sorted by ``_title_id``, one index at a time. Ids below
    1000 have three digits; each longer id extends one of 100 and up, so each
    index of 100 and up is followed by those that extend its id by a digit,
    ``10 * index`` to ``10 * index + 9``, each followed by its own."""
    for index in indices:
        if index >= n:
            return
        yield index
        if index >= 100:
            yield from _in_title_order(n, range(10 * index, 10 * index + 10))


# NumPy's SeedSequence constants (O'Neill's seed_seq mixing) and PCG64's
# 128-bit LCG multiplier.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1


class _Stream:
    """``numpy.random.default_rng(entropy).uniform(lo, hi)``, bit for bit,
    in plain Python: ``SeedSequence(entropy)`` with its default 4-word pool
    seeds a PCG64 (PCG XSL-RR 128/64), whose 64-bit outputs make the
    uniform draws. ``entropy`` is a sequence of non-negative ints."""

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy):
        words = []
        for n in entropy:
            if n < 0:
                raise ValueError("expected non-negative integer")
            words += (n >> shift & _M32 for shift in range(0, n.bit_length() or 1, 32))
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x, y):
            result = (_MIX_L * x - _MIX_R * y) & _M32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, paired little-endian.
        hash_const, state = _INIT_B, []
        for word in pool * 2:
            value = word ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            value = value * hash_const & _M32
            state.append(value ^ value >> 16)
        seed_hi, seed_lo, inc_hi, inc_lo = (
            lo | hi << 32 for lo, hi in zip(state[::2], state[1::2]))
        # PCG64's srandom: state 0, inc 2·seq + 1, step, add the seed, step.
        self._inc = (inc_hi << 64 | inc_lo) << 1 & _M128 | 1
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, lo: float, hi: float) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (-rot & 63)) & _M64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)


def _generate_title(spec: SynthSpec, index: int) -> TitleDataset:
    rng = _Stream((spec.seed, index))
    v = spec.title_variation
    heights = sorted(spec.resolutions)
    combos = [(r, c) for r in heights for c in sorted(spec.chromas, key=lambda c: c.fidelity_rank)]
    # Slopes/knees shift per title (moves the crossover points); ceilings only
    # shift globally so their resolution/chroma ordering is preserved.
    ceiling_shift = rng.uniform(-2 * v, 2 * v)
    slope_mult = [rng.uniform(1 - v, 1 + v) for _ in combos]
    knee_mult = [rng.uniform(1 - v, 1 + v) for _ in combos]
    base_mult = {r: rng.uniform(1 - v, 1 + v) for r in heights}

    lo, hi = PLAUSIBLE_RANGE[spec.metric]
    hi = min(hi, 1e9)
    noise, jitter, rate_slope = spec.noise, spec.jitter, spec.time_rate_slope
    title_id = _title_id(index)
    records = []
    for (r, c), slope_m, knee_m in zip(combos, slope_mult, knee_mult):
        # The factors of each target's values that depend on (r, c) alone.
        # Every corpus's bytes fix the float operations and their order:
        # q = (ceiling + shift) - (slope * slope_m) / log1p(b / (knee * knee_m))
        # and tau = ((base * base_mult) * chroma_factor) * (1 + rate_slope * b).
        model = spec.quality[(r, c)]
        ceiling = model.ceiling + ceiling_shift
        slope = model.slope * slope_m
        knee = model.knee_kbps * knee_m
        time_base = spec.time_base_s[r] * base_mult[r] * spec.time_chroma_factor[c]
        resolution = Resolution(r)
        for b in spec.targets_kbps:
            q = ceiling - slope / math.log1p(b / knee)
            q += noise * rng.uniform(-1.0, 1.0)
            q = min(max(q, lo), hi)
            tau = time_base * (1.0 + rate_slope * b)
            tau *= 1.0 + noise * rng.uniform(-1.0, 1.0)
            actual = b * (1.0 + jitter * rng.uniform(-1.0, 1.0))
            records.append(MeasurementRecord(
                title_id, resolution, c, b, actual, QualityScore(spec.metric, q), tau))
    return TitleDataset.from_records(records)


# -- JSON spec file -----------------------------------------------------------


def spec_to_json(spec: SynthSpec) -> str:
    payload = {
        "seed": spec.seed,
        "titles": spec.titles,
        "resolutions": list(spec.resolutions),
        "chromas": [c.value for c in spec.chromas],
        "targets_kbps": list(spec.targets_kbps),
        "quality": {
            f"{r}/{c.value}": {
                "ceiling": m.ceiling,
                "slope": m.slope,
                "knee_kbps": m.knee_kbps,
            }
            for (r, c), m in sorted(
                spec.quality.items(), key=lambda kv: (kv[0][0], kv[0][1].fidelity_rank)
            )
        },
        "time_base_s": {str(r): v for r, v in sorted(spec.time_base_s.items())},
        "time_chroma_factor": {
            c.value: spec.time_chroma_factor[c]
            for c in sorted(spec.time_chroma_factor, key=lambda c: c.fidelity_rank)
        },
        "time_rate_slope": spec.time_rate_slope,
        "noise": spec.noise,
        "jitter": spec.jitter,
        "title_variation": spec.title_variation,
        "metric": spec.metric.value,
    }
    return json.dumps(payload, indent=2) + "\n"


_OPTIONAL_FIELDS = {
    "noise": float,
    "jitter": float,
    "title_variation": float,
    "metric": QualityMetric,
}


def spec_from_json(source: str | TextIO) -> SynthSpec:
    text = source if isinstance(source, str) else source.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"invalid JSON: {exc}") from exc
    try:
        quality = {}
        for key, m in payload["quality"].items():
            r_str, c_str = key.split("/")
            quality[(int(r_str), ChromaFormat(c_str))] = QualityModel(
                ceiling=float(m["ceiling"]),
                slope=float(m["slope"]),
                knee_kbps=float(m["knee_kbps"]),
            )
        return SynthSpec(
            seed=int(payload["seed"]),
            titles=int(payload["titles"]),
            resolutions=tuple(int(r) for r in payload["resolutions"]),
            chromas=tuple(ChromaFormat(c) for c in payload["chromas"]),
            targets_kbps=tuple(float(b) for b in payload["targets_kbps"]),
            quality=quality,
            time_base_s={int(r): float(v) for r, v in payload["time_base_s"].items()},
            time_chroma_factor={
                ChromaFormat(c): float(v)
                for c, v in payload["time_chroma_factor"].items()
            },
            time_rate_slope=float(payload["time_rate_slope"]),
            # Omitted optional keys take SynthSpec's defaults.
            **{key: parse(payload[key]) for key, parse in _OPTIONAL_FIELDS.items()
               if key in payload},
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidSpec(f"bad spec field: {exc}") from exc
