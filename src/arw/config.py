"""Experiment configuration: a line-oriented key = value format with
sections, canonical serialization, and strict validation.

Unknown sections, `[DEFAULT]` too, or keys are rejected by field path.
`canonicalize` is idempotent: parsing and re-serializing a canonical
text reproduces it byte for byte, so configs are archivable run artifacts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigParseError, ValidationError
from .experiments import MPolicy
from .lattice import POLICIES, representation_count

SEQUENCE_POLICIES = ("explicit",) + POLICIES

_OUTPUT = {"section": "output"}  # field metadata; every other field is in [experiment]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is the config key of the same name."""

    d: int = 2
    policy: str = "explicit"
    n_values: tuple[int, ...] = ()
    n_min: int = 0
    n_max: int = 0
    trials: int = 1
    m_policy: str = "per_L:16"
    master_seed: int = 0
    epsilons: tuple[float, ...] = ()
    parallelism: int = 1
    csv: str = field(default="trials.csv", metadata=_OUTPUT)
    report: str = field(default="report.json", metadata=_OUTPUT)
    plots_dir: str = field(default="", metadata=_OUTPUT)

    def validate(self) -> "ExperimentConfig":
        if self.d < 2:
            raise ValidationError("experiment.d must be >= 2")
        if self.policy not in SEQUENCE_POLICIES:
            raise ValidationError(
                f"experiment.policy {self.policy!r}; expected one of {SEQUENCE_POLICIES}"
            )
        if self.policy == "explicit":
            if not self.n_values:
                raise ValidationError("experiment.n_values required for policy = explicit")
            if min(self.n_values) < 1:
                raise ValidationError("experiment.n_values must be >= 1")
            if len(set(self.n_values)) < len(self.n_values):
                raise ValidationError("experiment.n_values must not repeat a value")
            empty = [n for n in self.n_values if representation_count(self.d, n) == 0]
            if empty:
                raise ValidationError(
                    f"experiment.n_values {empty} are not sums of {self.d} squares (empty shells)"
                )
        else:
            if self.n_min < 1 or self.n_max < self.n_min:
                raise ValidationError("experiment.n_min/n_max must satisfy 1 <= n_min <= n_max")
        if self.trials < 1:
            raise ValidationError("experiment.trials must be >= 1")
        if self.parallelism < 1:
            raise ValidationError("experiment.parallelism must be >= 1")
        if self.master_seed < 0:
            raise ValidationError("experiment.master_seed must be >= 0")
        MPolicy.parse(self.m_policy)  # raises ValidationError if malformed
        if not all(0 < e < math.inf for e in self.epsilons):
            raise ValidationError("experiment.epsilons must be positive and finite")
        if len(set(self.epsilons)) < len(self.epsilons):
            raise ValidationError("experiment.epsilons must not repeat a value")
        if not self.csv or not self.report:
            raise ValidationError("output.csv and output.report are required")
        return self

    def to_ini(self) -> str:
        lines = []
        for section, keys in _SECTIONS.items():
            lines.append(f"[{section}]")
            for f in keys:
                value = getattr(self, f.name)
                if f.name == "m_policy":
                    value = MPolicy.parse(value)
                elif isinstance(value, tuple):
                    value = ",".join(repr(v) for v in value)
                lines.append(f"{f.name} = {value}")
            lines.append("")
        return "\n".join(lines)


_SECTIONS = {
    section: [
        f for f in fields(ExperimentConfig) if f.metadata.get("section", "experiment") == section
    ]
    for section in ("experiment", "output")
}
# annotation of a non-str field -> (element type, what a malformed value is not)
_SCALARS = {
    "int": (int, "an integer"),
    "tuple[int, ...]": (int, "a comma list of integers"),
    "tuple[float, ...]": (float, "a comma list of numbers"),
}


def _parse(section: str, f, raw: str):
    """The value of field `f` from its config text; blank means the default."""
    raw = raw.strip()
    if not raw or f.type == "str":
        return raw or f.default
    scalar, what = _SCALARS[f.type]
    try:
        if f.type == "int":
            return int(raw)
        return tuple(scalar(v.strip()) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ValidationError(f"{section}.{f.name}: {raw!r} is not {what}") from None


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigParseError(f"line {exc.lineno}: missing section header") from exc
    except configparser.ParsingError as exc:
        spots = "; ".join(f"line {number}" for number, _ in exc.errors)
        raise ConfigParseError(f"malformed config at {spots}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigParseError(
            f"line {exc.lineno}: option {exc.option!r} in section {exc.section!r} already exists"
        ) from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigParseError(f"line {exc.lineno}: section {exc.section!r} already exists") from exc
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
    texts = {s: parser[s] if parser.has_section(s) else {} for s in _SECTIONS}
    for section, keys in _SECTIONS.items():
        for key in texts[section]:
            if key not in {f.name for f in keys}:
                raise ValidationError(f"unknown key {section}.{key}")
    return ExperimentConfig(**{
        f.name: _parse(section, f, texts[section].get(f.name, ""))
        for section, keys in _SECTIONS.items()
        for f in keys
    }).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"{path}: {exc.strerror or exc}") from exc
    return from_ini(text)


def canonicalize(text: str) -> str:
    return from_ini(text).to_ini()
