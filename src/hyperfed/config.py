"""Experiment configuration: defaults, validation, JSON parsing and
`--set key=value` overrides.

Each `ExperimentConfig` field is declared once, with its type, its default
and its valid range on one line. The config validates itself: a config
built directly, by `dataclasses.replace`, by `make_config` or by
`parse_config` is coerced and checked field by field in `__post_init__`.
A checked config cannot be changed: derive a new one with
`dataclasses.replace`. This module is the only place that holds a
default or a valid range, and the blocks read the config by its own
field names.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass

# the parts each method runs: (ue, weight_reg, relabel)
METHODS = {"baseline": (False, False, False),
           "ue_no_w": (True, False, False),
           "ue": (True, True, False),
           "ue_ec": (True, True, True)}

class ConfigError(ValueError):
    pass


def _field(default, choices=None, ge=None, gt=None, le=None, lt=None):
    """A field's default and valid range: `choices` for a string, the
    bounds `ge`, `gt`, `le`, `lt` for a number."""
    bounds = [(symbol, holds, bound) for symbol, holds, bound in
              ((">=", operator.ge, ge), (">", operator.gt, gt),
               ("<=", operator.le, le), ("<", operator.lt, lt))
              if bound is not None]
    return dataclasses.field(default=default, metadata={"choices": choices,
                                                        "bounds": bounds})


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    method: str = _field("ue_ec", choices=tuple(METHODS))

    # federation protocol
    client_count: int = _field(10, ge=1)
    rounds: int = _field(100, ge=0)
    participation: float = _field(0.5, gt=0.0, le=1.0)
    local_epochs: int = _field(1, ge=1)
    batch_size: int = _field(32, ge=2)
    learning_rate: float = _field(0.10, ge=0.0)
    aggregation: str = _field("data-size", choices=("data-size", "uniform"))
    broadcast_all: bool = False

    # data
    dirichlet_alpha: float = _field(0.5, gt=0.0)
    classes: int = _field(7, ge=2)
    feature_dim: int = _field(32, ge=2)
    samples_per_class: int = _field(300, ge=1)
    separation: float = _field(1.0, ge=0.0)
    spread: float = _field(1.0, ge=0.0)
    csv_path: str = ""          # nonempty: load embeddings instead of synthetic
    noise_rate: float = _field(0.0, ge=0.0, le=1.0)
    corruption_rate: float = _field(0.0, ge=0.0, le=1.0)
    corruption_severity: float = _field(0.0, ge=0.0)
    corrupt_mislabeled: bool = False  # corrupt exactly the noisy-label samples
    test_fraction: float = _field(0.2, gt=0.0, lt=1.0)

    # model dimensions
    backbone_dim: int = _field(64, ge=1)
    compact_dim: int = _field(64, ge=1)
    relational_dim: int = _field(64, ge=1)
    estimator_hidden: int = _field(32, ge=1)
    expr_dim: int = _field(64, ge=1)
    hgnn_layers: int = _field(2, ge=1)

    # hypergraph + losses
    neighbor_count: int = _field(10, ge=1)
    ec_neighbor_count: int = _field(10, ge=1)
    bandwidth_mode: str = _field("median", choices=("median", "fixed"))
    fixed_sigma: float = _field(1.0, gt=0.0)
    eta: float = _field(0.2, ge=0.0)  # weight-regularization margin
    zeta: float = _field(0.7, gt=0.0, lt=1.0)  # certain-group fraction
    zeta_mode: str = _field("fraction", choices=("fraction", "threshold"))
    delta: float = _field(0.6, gt=0.0, lt=1.0)  # relabel threshold on beta
    relabel_start_round: int = _field(0, ge=0)  # first round that refines
    prop_lambda: float = _field(1.0, gt=0.0)  # label-propagation trade-off
    lambda1: float = _field(0.8, ge=0.0)
    lambda2: float = _field(1.0, ge=0.0)
    persist_refined: bool = True

    def __post_init__(self):
        for f in _FIELDS:
            object.__setattr__(self, f.name,
                               _checked(f, getattr(self, f.name)))


_FIELDS = dataclasses.fields(ExperimentConfig)
_NAMES = frozenset(f.name for f in _FIELDS)


def _coerce(key, value, kind):
    """value as kind. A float must be finite and an int integral: 2.0 is
    the int 2, while 1.7, NaN and Infinity are errors. A bool is also
    the int 0 or 1 or one of the strings true/false, 1/0, yes/no."""
    try:
        if kind == "int":
            if isinstance(value, bool) or (
                    isinstance(value, float) and not value.is_integer()):
                raise ValueError
            return int(value)
        if kind == "float":
            if isinstance(value, bool) or not math.isfinite(float(value)):
                raise ValueError
            return float(value)
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError
        return str(value)
    except (TypeError, ValueError, OverflowError):
        what = "finite float" if kind == "float" else kind
        raise ConfigError(f"{key}: expected {what}, got {value!r}") from None


def _checked(f, value):
    """value of field f, coerced to the field's type and range-checked."""
    key, choices = f.name, f.metadata.get("choices")
    if choices is not None:
        value = str(value)
        if value not in choices:
            raise ConfigError(
                f"{key}: must be one of {choices}, got {value!r}")
        return value
    value = _coerce(key, value, f.type)
    for symbol, holds, bound in f.metadata.get("bounds", ()):
        if not holds(value, bound):
            raise ConfigError(f"{key}: must be {symbol} {bound}, got {value}")
    return value


def make_config(values):
    """Build a validated config from a plain dict (unknown keys rejected)."""
    for key in values:
        if key not in _NAMES:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**values)


def parse_override(item):
    """`key=value` as (key, value). The value is JSON if it parses
    (numbers, bools, lists), a bare string otherwise."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    raw = raw.strip()
    try:
        return key.strip(), json.loads(raw)
    except json.JSONDecodeError:
        return key.strip(), raw


def parse_config(path=None, overrides=None):
    """JSON document merged over defaults, then `key=value` overrides.
    A file that cannot be read, is not UTF-8 or does not hold a JSON
    object is a ConfigError naming the file (and the line and column of
    a JSON syntax error)."""
    values = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: byte {exc.start} "
                              f"is {exc.object[exc.start]:#04x}") from exc
        if text.strip():
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno} column "
                                  f"{exc.colno}: {exc.msg}") from exc
            if not isinstance(doc, dict):
                raise ConfigError(f"{path}: top level must be a JSON object")
            values.update(doc)
    values.update(parse_override(item) for item in overrides or [])
    return make_config(values)


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)


def save_resolved_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
