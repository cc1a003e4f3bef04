"""Scenario files, schedule/metrics/plan reports, and waveform exports.

Scenario files are JSON. Quantities may be JSON numbers or strings; either
way they are parsed exactly (numbers through a Decimal hook, strings through
Fraction, which also accepts "p/q"). Emitted files render every quantity as
a canonical decimal string - seconds with up to six fractional digits,
amounts rounded half-even to three - falling back to "p/q" where a time-
structural value (frequency, duty) has no finite decimal form. All writes go
through a temp file and rename, and repeated runs produce identical bytes.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import pairwise
from pathlib import Path

from .errors import NonRepresentableTimeError, ScenarioError
from .power import MODES
from .ticks import MAX_DIGITS, MAX_EXPONENT  # noqa: F401  the bounds of a scenario's quantities
from .ticks import TICKS_PER_SECOND, bounded_text, seconds_str, ticks_from_seconds
from .waveform import Metrics, PulseSpec, StepProfile, load_sort_key


@dataclass
class Scenario:
    """Parsed scenario: loads in file order plus the optional power/sim blocks."""

    loads: list[PulseSpec]
    explicit_phase: list[bool]
    p_max_w: Fraction | None = None
    power_mode: str | None = None
    emit_csv: bool = False
    emit_svg: bool = False


def amount_str(value: Fraction) -> str:
    """Canonical report form: rounded half-even to 3 decimals, zeros stripped."""
    thousandths = round(Fraction(value) * 1000)
    sign = "-" if thousandths < 0 else ""
    whole, frac = divmod(abs(thousandths), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:03d}".rstrip("0")


def exact_str(value: Fraction) -> str:
    """Lossless form: a decimal string when one exists within 6 digits, else p/q."""
    value = Fraction(value)
    return _ratio_str(value.numerator, value.denominator)


def _ratio_str(num: int, den: int) -> str:
    """exact_str of num/den (den > 0), computed on the integers."""
    micros, rest = divmod(num * TICKS_PER_SECOND, den)
    if rest:
        g = math.gcd(num, den)
        return f"{num // g}/{den // g}"
    return seconds_str(micros)


def _bounded(text: str, where: str) -> str:
    """`text` itself, unless ticks.bounded_text refuses it; the error names the field."""
    try:
        return bounded_text(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_exact(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise ScenarioError(f"{where}: expected a number, got a boolean")
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, str):
        _bounded(raw, where)
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: cannot parse {raw!r} as an exact number") from exc
    raise ScenarioError(f"{where}: expected a number or numeric string, got {type(raw).__name__}")


_LOAD_KEYS = {"id", "amplitude_a", "frequency_hz", "duty_pct", "phase_s", "voltage_v", "soc_pct"}


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file; errors are anchored to file and field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(
            text,
            parse_float=lambda s: Fraction(Decimal(_bounded(s, path))),
            parse_int=lambda s: int(_bounded(s, path)),
            parse_constant=lambda s: (_ for _ in ()).throw(ValueError(s)),
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from exc

    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    unknown = set(doc) - {"loads", "power", "sim"}
    if unknown:
        raise ScenarioError(f"{path}: unknown top-level keys {sorted(unknown)}")
    raw_loads = doc.get("loads")
    if not isinstance(raw_loads, list) or not raw_loads:
        raise ScenarioError(f"{path}: loads: must be a non-empty array")

    loads: list[PulseSpec] = []
    explicit: list[bool] = []
    seen_ids: set = set()
    for k, entry in enumerate(raw_loads):
        where = f"{path}: loads[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: must be an object")
        bad = set(entry) - _LOAD_KEYS
        if bad:
            raise ScenarioError(f"{where}: unknown keys {sorted(bad)}")
        for key in ("id", "amplitude_a", "frequency_hz", "duty_pct"):
            if key not in entry:
                raise ScenarioError(f"{where}.{key}: missing")
        load_id = entry["id"]
        if not isinstance(load_id, (int, str)) or isinstance(load_id, bool):
            raise ScenarioError(f"{where}.id: must be an integer or string")
        if load_id in seen_ids:
            raise ScenarioError(f"{where}.id: duplicate id {load_id!r}")
        seen_ids.add(load_id)

        amplitude = _parse_exact(entry["amplitude_a"], f"{where}.amplitude_a")
        if amplitude <= 0:
            raise ScenarioError(f"{where}.amplitude_a: must be positive")
        freq = _parse_exact(entry["frequency_hz"], f"{where}.frequency_hz")
        if freq <= 0:
            raise ScenarioError(f"{where}.frequency_hz: must be positive")
        period = Fraction(TICKS_PER_SECOND) / freq
        if period.denominator != 1:
            raise ScenarioError(
                f"{where}.frequency_hz: period 1/{freq} s is not a whole number of 1 µs ticks"
            )
        duty = _parse_exact(entry["duty_pct"], f"{where}.duty_pct")
        if not 0 < duty <= 100:
            raise ScenarioError(f"{where}.duty_pct: must lie in (0, 100]")
        on_width = period * duty / 100
        if on_width.denominator != 1:
            raise ScenarioError(
                f"{where}.duty_pct: {duty}% of {seconds_str(period.numerator)} s "
                "is not a whole number of 1 µs ticks"
            )

        phase = 0
        has_phase = "phase_s" in entry
        if has_phase:
            try:
                phase = ticks_from_seconds(_parse_exact(entry["phase_s"], f"{where}.phase_s"))
            except NonRepresentableTimeError as exc:
                raise ScenarioError(f"{where}.phase_s: {exc}") from exc
            if phase < 0:
                raise ScenarioError(f"{where}.phase_s: must be non-negative")

        voltage = None
        if "voltage_v" in entry:
            voltage = _parse_exact(entry["voltage_v"], f"{where}.voltage_v")
            if voltage <= 0:
                raise ScenarioError(f"{where}.voltage_v: must be positive")
        soc = None
        if "soc_pct" in entry:
            soc_pct = _parse_exact(entry["soc_pct"], f"{where}.soc_pct")
            if not 0 <= soc_pct <= 100:
                raise ScenarioError(f"{where}.soc_pct: must lie in [0, 100]")
            soc = soc_pct / 100

        loads.append(
            PulseSpec(
                id=load_id,
                amplitude=amplitude,
                period=period.numerator,
                on_width=on_width.numerator,
                phase=phase,  # reduced modulo the period on construction
                voltage=voltage,
                soc=soc,
            )
        )
        explicit.append(has_phase)

    scenario = Scenario(loads=loads, explicit_phase=explicit)
    power = doc.get("power")
    if power is not None:
        where = f"{path}: power"
        if not isinstance(power, dict) or set(power) - {"p_max_w", "mode"}:
            raise ScenarioError(f"{where}: must be an object with p_max_w and optional mode")
        if "p_max_w" not in power:
            raise ScenarioError(f"{where}.p_max_w: missing")
        p_max = _parse_exact(power["p_max_w"], f"{where}.p_max_w")
        if p_max <= 0:
            raise ScenarioError(f"{where}.p_max_w: must be positive")
        scenario.p_max_w = p_max
        mode = power.get("mode")
        if mode is not None:
            if mode not in MODES:
                raise ScenarioError(f"{where}.mode: must be one of {MODES}")
            scenario.power_mode = mode
    sim = doc.get("sim")
    if sim is not None:
        where = f"{path}: sim"
        if not isinstance(sim, dict) or set(sim) - {"emit_csv", "emit_svg"}:
            raise ScenarioError(f"{where}: must be an object with emit_csv/emit_svg")
        for key in ("emit_csv", "emit_svg"):
            if key in sim and not isinstance(sim[key], bool):
                raise ScenarioError(f"{where}.{key}: must be a boolean")
        scenario.emit_csv = bool(sim.get("emit_csv", False))
        scenario.emit_svg = bool(sim.get("emit_svg", False))
    return scenario


def write_text_atomic(path: Path, text: str) -> None:
    """Write via temp file + rename so readers never see a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") gives; mkstemp's is 0o600
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def metrics_json(metrics: Metrics) -> str:
    return _dump_json(
        {
            "min_a": amount_str(metrics.min_a),
            "max_a": amount_str(metrics.max_a),
            "fluctuation_a": amount_str(metrics.fluctuation_a),
            "mean_a": amount_str(metrics.mean_a),
        }
    )


def scenario_json(
    loads: list[PulseSpec], p_max_w: Fraction | None = None, power_mode: str | None = None
) -> str:
    """Re-ingestible scenario document; loads ordered by id, quantities lossless."""
    rows = []
    for s in sorted(loads, key=lambda s: load_sort_key(s.id)):
        row = {
            "id": s.id,
            "amplitude_a": exact_str(s.amplitude),
            "frequency_hz": exact_str(s.frequency_hz),
            "duty_pct": exact_str(100 * s.duty),
            "phase_s": seconds_str(s.phase),
        }
        if s.voltage is not None:
            row["voltage_v"] = exact_str(s.voltage)
        if s.soc is not None:
            row["soc_pct"] = exact_str(100 * s.soc)
        rows.append(row)
    doc: dict = {"loads": rows}
    if p_max_w is not None:
        power: dict = {"p_max_w": exact_str(p_max_w)}
        if power_mode is not None:
            power["mode"] = power_mode
        doc["power"] = power
    return _dump_json(doc)


def schedule_json(rows: list[dict]) -> str:
    """Schedule report: per-load id, group, role, phase_s (already ordered)."""
    return _dump_json({"loads": rows})


def plan_json(plan) -> str:
    """Power-plan report: admission split, mode, and applied scale."""
    return _dump_json(
        {
            "admitted": list(plan.admitted),
            "postponed": list(plan.postponed),
            "mode": plan.mode,
            "scale": amount_str(plan.scale),
            "p_sum_w": amount_str(plan.p_sum_w),
            "p_max_w": amount_str(plan.p_max_w),
        }
    )


def waveform_csv(profile: StepProfile) -> str:
    """One row per breakpoint: time in seconds and the level starting there."""
    den = profile.denominator
    texts: dict[int, str] = {}  # each distinct level rendered once
    lines = ["t_s,i_total_a"]
    for t, v in zip(profile.breakpoints, profile.scaled):
        text = texts.get(v)
        if text is None:
            text = texts[v] = _ratio_str(v, den)
        lines.append(f"{seconds_str(t)},{text}")
    return "\n".join(lines) + "\n"


def waveform_svg(profile: StepProfile, title: str) -> str:
    """Minimal step chart: one polyline over one hyperperiod."""
    width, height = 840.0, 360.0
    left, right, top, bottom = 60.0, 20.0, 30.0, 40.0
    span_x = width - left - right
    span_y = height - top - bottom
    bps, scaled, den = profile.breakpoints, profile.scaled, profile.denominator
    top_level = max(Fraction(max(scaled), den), Fraction(1))
    # levels past 2**1000 are drawn over den * 2**shift, so float() cannot
    # overflow; a power of two changes no rounding, and below 2**1000 shift
    # is 0, so those charts keep their bytes
    shift = max(0, top_level.numerator.bit_length() - top_level.denominator.bit_length() - 1000)
    den <<= shift
    scale_x = span_x / profile.hyperperiod
    scale_y = span_y / float(top_level * Fraction(11, 10) / (1 << shift))

    # v / den is correctly rounded, so it equals float(Fraction(v, den));
    # each distinct level and each breakpoint is formatted once
    ys = {v: f"{height - bottom - v / den * scale_y:.2f}" for v in set(scaled)}
    xs = (f"{left + t * scale_x:.2f}" for t in (*bps, profile.hyperperiod))

    # left-to-right step outline; the stretch before the first breakpoint
    # belongs to the cyclic last segment
    points: list[str] = []
    if bps[0] > 0:
        y = ys[scaled[-1]]
        points += (f"{left:.2f},{y}", f"{left + bps[0] * scale_x:.2f},{y}")
    for (x, end), v in zip(pairwise(xs), scaled):
        y = ys[v]
        points += (f"{x},{y}", f"{end},{y}")

    axis = (
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>'
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>'
    )
    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # xml.sax's escape
    labels = (
        f'<text x="{left:.2f}" y="{top - 10:.2f}" font-size="14">{text}</text>'
        f'<text x="{left - 8:.2f}" y="{top + 12:.2f}" font-size="12" text-anchor="end">'
        f"{amount_str(top_level)} A</text>"
        f'<text x="{width - right:.2f}" y="{height - bottom + 18:.2f}" font-size="12" '
        f'text-anchor="end">{seconds_str(profile.hyperperiod)} s</text>'
        f'<text x="{left - 8:.2f}" y="{height - bottom:.2f}" font-size="12" '
        f'text-anchor="end">0</text>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
        f"{axis}\n{labels}\n"
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{" ".join(points)}"/>\n'
        "</svg>\n"
    )
