"""Scenario files, schedule/metrics/plan reports, and waveform exports.

Scenario files are JSON. A quantity may be a JSON number or a string: a
number stays text until its field is read, so one integer parser,
`ticks.parse_ratio`, reads both exactly as a numerator and denominator, and a
refusal names the file and field either way. It reads what Fraction reads,
"p/q" included, and refuses an out-of-bound exponent or digit count before it
builds a number. Each load field is read as one column over the whole loads
array and checked once per distinct text (duty and phase: text and period),
and a refusal names the earliest faulty load and its first faulty field.

Emitted files render every quantity as a canonical decimal string - seconds
with up to six fractional digits, amounts rounded half-even to three -
falling back to "p/q" where a time-structural value (frequency, duty) has no
finite decimal form. The JSON reports are the bytes of json.dumps(doc,
indent=2, sort_keys=True), built without it, since any indent selects
json's pure-Python encoder: a scenario or schedule row is one "%" template,
each distinct quantity is rendered once per document, and a flat list or
object is one C-encoder call whose item separator carries the indent. The
waveform writers format each run of values, in slices of at most 1024, by
one "%" call over a template and join the pieces, with the bytes of
`seconds_str`, `exact_str` and "%.2f". All writes go through a temp file and
rename, and repeated runs produce identical bytes.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from .errors import ScenarioError, WorkBudgetError
from .grouping import Group
from .power import MODES
from .ticks import TICKS_PER_SECOND, parse_ratio, seconds_str, seconds_strs
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
    return seconds_str(round(Fraction(value) * 1000) * 1000)  # thousandths as µs ticks


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


class _Number(str):
    """A JSON number token's text, read by `_ratio` as a string is."""

    __slots__ = ()


def _ratio(raw, ratios: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The exact value of a scenario quantity as (num, den), den > 0.

    `ratios` holds the texts of the document read so far, each parsed once.
    A refusal is a ScenarioError that the caller anchors to its field.
    """
    if isinstance(raw, str):  # a string or a _Number
        ratio = ratios.get(raw)
        if ratio is None:
            try:
                ratio = parse_ratio(raw)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            if ratio is None:
                raise ScenarioError(f"cannot parse {raw!r} as an exact number")
            ratios[raw] = ratio
        return ratio
    if isinstance(raw, bool):
        raise ScenarioError("expected a number, got a boolean")
    raise ScenarioError(f"expected a number or numeric string, got {type(raw).__name__}")


# The checks of the load fields, each from the field's raw value (duty and
# phase: with the load's period) to the value a PulseSpec holds.


def _positive(raw, ratios) -> Fraction:
    num, den = _ratio(raw, ratios)
    if num <= 0:
        raise ScenarioError("must be positive")
    return Fraction(num, den)


def _period(raw, ratios) -> int:
    num, den = _ratio(raw, ratios)
    if num <= 0:
        raise ScenarioError("must be positive")
    period, rest = divmod(TICKS_PER_SECOND * den, num)
    if rest:
        raise ScenarioError(f"period 1/{Fraction(num, den)} s is not a whole number of 1 µs ticks")
    return period


def _on_width(key: tuple, ratios) -> int:
    raw, period = key
    num, den = _ratio(raw, ratios)
    if not 0 < num <= 100 * den:
        raise ScenarioError("must lie in (0, 100]")
    on_width, rest = divmod(period * num, 100 * den)
    if rest:
        raise ScenarioError(
            f"{Fraction(num, den)}% of {seconds_str(period)} s is not a whole number of 1 µs ticks"
        )
    return on_width


def _phase(key: tuple, ratios) -> int:
    raw, period = key
    num, den = _ratio(raw, ratios)
    phase, rest = divmod(num * TICKS_PER_SECOND, den)
    if rest:  # named as written, whitespace collapsed so the message stays on one line
        raise ScenarioError(f"{' '.join(raw.split())} s is not a whole number of 1 µs ticks")
    if phase < 0:
        raise ScenarioError("must be non-negative")
    return phase % period


def _soc(raw, ratios) -> Fraction:
    num, den = _ratio(raw, ratios)
    if not 0 <= num <= 100 * den:
        raise ScenarioError("must lie in [0, 100]")
    return Fraction(num, 100 * den)


_LOAD_KEYS = {"id", "amplitude_a", "frequency_hz", "duty_pct", "phase_s", "voltage_v", "soc_pct"}
_REQUIRED = ("id", "amplitude_a", "frequency_hz", "duty_pct")
_ABSENT = ()  # an optional field's entry for a load that leaves it out: no JSON value is a tuple


def _shape(entry) -> str:
    """A load's refusal for its shape, after "loads[k]", or "" if it has none."""
    if not isinstance(entry, dict):
        return ": must be an object"
    if not entry.keys() <= _LOAD_KEYS:
        return f": unknown keys {sorted(set(entry) - _LOAD_KEYS)}"
    return next((f".{key}: missing" for key in _REQUIRED if key not in entry), "")


def _id(raw) -> int | str | ValueError:
    """A load's id (a string, or an integer token's integer), or its refusal."""
    if type(raw) is _Number and raw.lstrip("-").isdigit():  # an integer token
        try:
            return parse_ratio(raw)[0]  # each id is its own text: parsed with no memo
        except ValueError as exc:  # past MAX_DIGITS
            return exc
    return raw if type(raw) is str else ValueError("must be an integer or string")


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file; errors are anchored to file and field.

    Each load field is read as a column, in C-level passes over the loads before
    the first misshapen one, and checked once per distinct text (duty and phase:
    text and period) in first-occurrence order: a column's first refusal is at its
    first refusing load. The earliest such load is refused at its first field (id,
    amplitude, frequency, duty, phase, voltage, soc), else the misshapen load is.
    """
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
            parse_float=_Number,
            parse_int=_Number,
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

    b, shape = len(raw_loads), ""  # the first misshapen load, and its refusal after "loads[b]"
    if not (
        all(map(isinstance, raw_loads, repeat(dict)))
        and _LOAD_KEYS.issuperset(chain.from_iterable(raw_loads))
        and all(all(map(dict.__contains__, raw_loads, repeat(key))) for key in _REQUIRED)
    ):
        b, shape = next((k, s) for k, s in enumerate(map(_shape, raw_loads)) if s)
    good = raw_loads[:b]
    ratios: dict[str, tuple[int, int]] = {}  # a fleet repeats its quantities' texts
    refusals: list = []  # each field's first (load, field, refusal), in the order fields are read

    def column(field: str, check, *periods: list, absent=_ABSENT) -> list:
        """check's value of `field` for each load before b, up to the field's first refusal."""
        col = list(map(dict.get, good, repeat(field), repeat(absent)))
        if not all(map(isinstance, col, repeat((str, tuple)))):  # no unhashable value is a key
            end = next(k for k, raw in enumerate(col) if not isinstance(raw, (str, tuple)))
            try:
                _ratio(col[end], ratios)  # refuses every value that is not text
            except ScenarioError as exc:
                refusals.append((end, field, exc))
            del col[end:]
        keys = list(zip(col, *periods)) if periods else col  # a refused period ends the column
        values = dict.fromkeys(keys)
        for key in values:
            try:
                values[key] = None if key is _ABSENT else check(key, ratios)
            except ScenarioError as exc:
                end = keys.index(key)  # the key's first load
                refusals.append((end, field, exc))
                del keys[end:]
                break
        return list(map(values.__getitem__, keys))

    ids = list(map(_id, map(itemgetter("id"), good)))
    if not all(map(isinstance, ids, repeat((int, str)))):  # a refused id is its ValueError
        k = next(k for k, load_id in enumerate(ids) if isinstance(load_id, ValueError))
        refusals.append((k, "id", ids[k]))
    first = dict(zip(reversed(ids), reversed(range(len(ids)))))  # each id's first load
    if len(first) < len(ids):
        k = next(k for k, load_id in enumerate(ids) if first[load_id] != k)
        refusals.append((k, "id", f"duplicate id {ids[k]!r}"))
    amplitudes = column("amplitude_a", _positive)
    periods = column("frequency_hz", _period)
    on_widths = column("duty_pct", _on_width, periods)
    phases = column("phase_s", _phase, periods, absent="0")  # a load without a phase starts at 0
    voltages = column("voltage_v", _positive)
    socs = column("soc_pct", _soc)
    if refusals:  # the earliest load's, and at that load the field read first
        k, field, exc = min(refusals, key=itemgetter(0))
        raise ScenarioError(f"{path}: loads[{k}].{field}: {exc}")
    if shape:
        raise ScenarioError(f"{path}: loads[{b}]{shape}")
    scenario = Scenario(
        loads=list(map(PulseSpec._checked, ids, amplitudes, periods, on_widths, phases, voltages, socs)),
        explicit_phase=list(map(dict.__contains__, good, repeat("phase_s"))),
    )
    power = doc.get("power")
    if power is not None:
        where = f"{path}: power"
        if not isinstance(power, dict) or set(power) - {"p_max_w", "mode"}:
            raise ScenarioError(f"{where}: must be an object with p_max_w and optional mode")
        if "p_max_w" not in power:
            raise ScenarioError(f"{where}.p_max_w: missing")
        try:
            scenario.p_max_w = _positive(power["p_max_w"], ratios)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}.p_max_w: {exc}") from exc
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
    """Write UTF-8 `text` to `path` atomically (temp file + rename); an OSError names `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open()
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # not the temp file's name: that file is gone
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _flat(container, depth: int = 0) -> str:
    """json.dumps(container, indent=2, sort_keys=True) for a list or dict of scalars
    nested `depth` levels deep, in one call of the C encoder, which any indent turns off."""
    pad = "\n" + "  " * (depth + 1)
    text = json.dumps(container, sort_keys=True, separators=("," + pad, ": "))
    if len(text) == 2:  # [] or {}
        return text
    return f"{text[0]}{pad}{text[1:-1]}{pad[:-2]}{text[-1]}"


def _id_json(load_id) -> str:
    return str(load_id) if type(load_id) is int else json.dumps(load_id)


class _RatioTexts(dict):
    """_ratio_str by (num, den), each distinct pair rendered once."""

    def __missing__(self, key: tuple[int, int]) -> str:
        text = self[key] = _ratio_str(*key)
        return text


def metrics_json(metrics: Metrics) -> str:
    return _flat(
        {
            "min_a": amount_str(metrics.min_a),
            "max_a": amount_str(metrics.max_a),
            "fluctuation_a": amount_str(metrics.fluctuation_a),
            "mean_a": amount_str(metrics.mean_a),
        }
    ) + "\n"


# json.dumps(row, indent=2, sort_keys=True) of a scenario row at depth 2, for
# each (has voltage, has soc): every value but the id is a quantity text,
# which JSON needs no escape for
_ROW = (
    '    {\n      "amplitude_a": "%s",\n      "duty_pct": "%s",\n      "frequency_hz": "%s",'
    '\n      "id": %s,\n      "phase_s": "%s"'
)
_ROWS = {
    (False, False): _ROW + "\n    }",
    (True, False): _ROW + ',\n      "voltage_v": "%s"\n    }',
    (False, True): _ROW + ',\n      "soc_pct": "%s"\n    }',
    (True, True): _ROW + ',\n      "soc_pct": "%s",\n      "voltage_v": "%s"\n    }',
}
_SCHEDULE_ROW = (
    '    {\n      "group": %d,\n      "id": %s,\n      "phase_s": "%s",\n      "role": "%s"\n    }'
)


def _loads_json(rows: list[str], tail: str = "") -> str:
    """The document {"loads": rows, ...} from its rendered rows and its rendered other keys."""
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return f'{{\n  "loads": {body}{tail}\n}}\n'


def scenario_json(
    loads: list[PulseSpec], p_max_w: Fraction | None = None, power_mode: str | None = None
) -> str:
    """Re-ingestible scenario document; loads ordered by id, quantities lossless."""
    texts = _RatioTexts()
    rows = []
    for s in sorted(loads, key=lambda s: load_sort_key(s.id)):
        amp, volt, soc, period = s.amplitude, s.voltage, s.soc, s.period
        values = [
            texts[amp.numerator, amp.denominator],
            texts[100 * s.on_width, period],
            texts[TICKS_PER_SECOND, period],
            _id_json(s.id),
            texts[s.phase, TICKS_PER_SECOND],  # seconds_str(phase)
        ]
        if soc is not None:
            values.append(texts[100 * soc.numerator, soc.denominator])
        if volt is not None:
            values.append(texts[volt.numerator, volt.denominator])
        rows.append(_ROWS[volt is not None, soc is not None] % tuple(values))
    if p_max_w is None:
        return _loads_json(rows)
    power: dict = {"p_max_w": exact_str(p_max_w)}
    if power_mode is not None:
        power["mode"] = power_mode
    return _loads_json(rows, ',\n  "power": ' + _flat(power, 1))


def schedule_json(fleet: list[PulseSpec], groups: tuple[Group, ...]) -> str:
    """Schedule report of `schedule_fleet`'s result: per load of `fleet`, in its order, its id,
    group number (the group's position in `groups`, plus one), role and phase_s."""
    place = {
        load_id: (number, "bin" if is_bin else "item")
        for number, group in enumerate(groups, 1)
        for load_id, is_bin in zip(group.member_ids, group.assignment.bin_flags)
    }
    return _loads_json(
        [_SCHEDULE_ROW % (place[s.id][0], _id_json(s.id), seconds_str(s.phase), place[s.id][1]) for s in fleet]
    )


def plan_json(plan) -> str:
    """Power-plan report: admission split, mode, and applied scale."""
    return (
        f'{{\n  "admitted": {_flat(list(plan.admitted), 1)},\n  "mode": {json.dumps(plan.mode)},\n'
        f'  "p_max_w": "{amount_str(plan.p_max_w)}",\n  "p_sum_w": "{amount_str(plan.p_sum_w)}",\n'
        f'  "postponed": {_flat(list(plan.postponed), 1)},\n  "scale": "{amount_str(plan.scale)}"\n}}\n'
    )


def digit_limit_error(what: str) -> WorkBudgetError:
    """The refusal of `what`, a value that Python cannot print: str() and "%d" of an int
    refuse more than sys.get_int_max_str_digits() digits with a ValueError."""
    return WorkBudgetError(
        f"{what} whose numerator or denominator has more than {sys.get_int_max_str_digits()} digits"
    )


def waveform_csv(profile: StepProfile) -> str:
    """One row per breakpoint: time in seconds and the level starting there; a level whose
    numerator or denominator passes sys.get_int_max_str_digits() is a WorkBudgetError."""
    den = profile.denominator
    levels = sorted(set(profile.scaled))  # each distinct level rendered once
    if TICKS_PER_SECOND % den or levels[0] < 0:  # "p/q" levels; seconds_strs takes no sign
        texts = map(_ratio_str, levels, repeat(den))
    else:  # every level is a whole number of millionths, so its text is a seconds text
        texts = seconds_strs([v * (TICKS_PER_SECOND // den) for v in levels])
    try:
        text_of = dict(zip(levels, map(",%s\n".__mod__, texts)))
    except ValueError as exc:  # str() of an int past the limit, the only ValueError here
        raise digit_limit_error("the waveform CSV cannot print a level") from exc
    # one join: the header, then each row as its time and its level
    pieces = ["t_s,i_total_a\n", *repeat(None, 2 * len(profile.scaled))]
    pieces[1::2] = seconds_strs(profile.breakpoints)
    pieces[2::2] = map(text_of.__getitem__, profile.scaled)
    return "".join(pieces)


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

    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # xml.sax's escape
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>'
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>\n'
        f'<text x="{left:.2f}" y="{top - 10:.2f}" font-size="14">{text}</text>'
        f'<text x="{left - 8:.2f}" y="{top + 12:.2f}" font-size="12" text-anchor="end">'
        f"{amount_str(top_level)} A</text>"
        f'<text x="{width - right:.2f}" y="{height - bottom + 18:.2f}" font-size="12" '
        f'text-anchor="end">{seconds_str(profile.hyperperiod)} s</text>'
        f'<text x="{left - 8:.2f}" y="{height - bottom:.2f}" font-size="12" '
        f'text-anchor="end">0</text>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="'
    )
    # v / den is correctly rounded, so it equals float(Fraction(v, den)); the
    # distinct levels take one "%" call over a "%.2f" template, the xs one a slice
    distinct = tuple(set(scaled))
    ys = tuple(height - bottom - v / den * scale_y for v in distinct)
    ys = dict(zip(distinct, ("%.2f\n" * len(ys) % ys).splitlines()))
    # left-to-right step outline; the stretch before the first breakpoint
    # belongs to the cyclic last segment
    ticks, levels = (*bps, profile.hyperperiod), scaled
    if bps[0] > 0:
        ticks, levels = (0, *ticks), (scaled[-1], *scaled)
    # the head, then slices of at most 1024 segments, segment k as the pieces
    # x_k, y_k, x_k+1, y_k (each x with the space before it and a comma)
    parts = [head]
    for start in range(0, len(levels), 1024):
        xs = tuple(map(left.__add__, map(scale_x.__rmul__, ticks[start : start + 1025])))
        xs = (" %.2f,\n" * len(xs) % xs).splitlines()
        pieces = [None] * (4 * len(xs) - 4)
        pieces[::4], pieces[2::4] = xs[:-1], xs[1:]
        pieces[1::4] = pieces[3::4] = list(map(ys.__getitem__, levels[start : start + 1024]))
        parts.append("".join(pieces))
    parts[1] = parts[1][1:]  # no space before the chart's first x
    return "".join([*parts, '"/>\n</svg>\n'])
