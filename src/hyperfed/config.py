"""Experiment configuration: defaults, validation, JSON parsing and
`--set key=value` overrides.

Defaults follow the reference training protocol: 10 clients, 100 rounds at
50% participation, SGD lr 0.10, batch 32, margin 0.2, certain fraction
0.7, relabel threshold 0.6, loss weights 0.8 / 1.0, two HGNN layers, 10
neighbors.

This module is the only place that holds a default or a valid range:
`make_config` validates every field once, and the blocks read the
validated `ExperimentConfig` by its own field names.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

METHODS = ("baseline", "ue_no_w", "ue", "ue_ec")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 0
    method: str = "ue_ec"

    # federation protocol
    client_count: int = 10
    rounds: int = 100
    participation: float = 0.5
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.10
    aggregation: str = "data-size"  # "data-size" | "uniform"
    broadcast_all: bool = False

    # data
    dirichlet_alpha: float = 0.5
    classes: int = 7
    feature_dim: int = 32
    samples_per_class: int = 300
    separation: float = 1.0
    spread: float = 1.0
    csv_path: str = ""          # nonempty: load embeddings instead of synthetic
    noise_rate: float = 0.0
    corruption_rate: float = 0.0
    corruption_severity: float = 0.0
    corrupt_mislabeled: bool = False  # corrupt exactly the noisy-label samples
    test_fraction: float = 0.2

    # model dimensions
    backbone_dim: int = 64
    compact_dim: int = 64
    relational_dim: int = 64
    estimator_hidden: int = 32
    expr_dim: int = 64
    hgnn_layers: int = 2

    # hypergraph + losses
    neighbor_count: int = 10
    ec_neighbor_count: int = 10
    bandwidth_mode: str = "median"
    fixed_sigma: float = 1.0
    eta: float = 0.2            # weight-regularization margin
    zeta: float = 0.7           # certain-group fraction
    zeta_mode: str = "fraction"  # "fraction" | "threshold"
    delta: float = 0.6          # relabel threshold on beta
    relabel_start_round: int = 0  # hold off refinement until features settle
    prop_lambda: float = 1.0    # label-propagation trade-off
    lambda1: float = 0.8
    lambda2: float = 1.0
    persist_refined: bool = True


_RANGES = {
    "seed": ("int", None, None),
    "method": ("choice", METHODS),
    "client_count": ("int", 1, None),
    "rounds": ("int", 0, None),
    "participation": ("float", (0.0, False), (1.0, True)),
    "local_epochs": ("int", 1, None),
    "batch_size": ("int", 2, None),
    "learning_rate": ("float", (0.0, True), None),
    "aggregation": ("choice", ("data-size", "uniform")),
    "broadcast_all": ("bool",),
    "dirichlet_alpha": ("float", (0.0, False), None),
    "classes": ("int", 2, None),
    "feature_dim": ("int", 2, None),
    "samples_per_class": ("int", 1, None),
    "separation": ("float", (0.0, True), None),
    "spread": ("float", (0.0, True), None),
    "csv_path": ("str",),
    "noise_rate": ("float", (0.0, True), (1.0, True)),
    "corruption_rate": ("float", (0.0, True), (1.0, True)),
    "corruption_severity": ("float", (0.0, True), None),
    "corrupt_mislabeled": ("bool",),
    "test_fraction": ("float", (0.0, False), (1.0, False)),
    "backbone_dim": ("int", 1, None),
    "compact_dim": ("int", 1, None),
    "relational_dim": ("int", 1, None),
    "estimator_hidden": ("int", 1, None),
    "expr_dim": ("int", 1, None),
    "hgnn_layers": ("int", 1, None),
    "neighbor_count": ("int", 1, None),
    "ec_neighbor_count": ("int", 1, None),
    "bandwidth_mode": ("choice", ("median", "fixed")),
    "fixed_sigma": ("float", (0.0, False), None),
    "eta": ("float", (0.0, True), None),
    "zeta": ("float", (0.0, False), (1.0, False)),
    "zeta_mode": ("choice", ("fraction", "threshold")),
    "delta": ("float", (0.0, False), (1.0, False)),
    "relabel_start_round": ("int", 0, None),
    "prop_lambda": ("float", (0.0, False), None),
    "lambda1": ("float", (0.0, True), None),
    "lambda2": ("float", (0.0, True), None),
    "persist_refined": ("bool",),
}


def _coerce(key, value, kind):
    """value as kind. A float must be finite and an int integral: 2.0 is
    the int 2, while 1.7, NaN and Infinity are errors."""
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


def _validate_field(key, value):
    if key not in _RANGES:
        raise ConfigError(f"unknown config key {key!r}")
    spec = _RANGES[key]
    kind = spec[0]
    if kind == "choice":
        value = str(value)
        if value not in spec[1]:
            raise ConfigError(f"{key}: must be one of {spec[1]}, got {value!r}")
        return value
    if kind in ("str", "bool"):
        return _coerce(key, value, kind)
    value = _coerce(key, value, kind)
    lo, hi = spec[1], spec[2]
    if kind == "int":
        if lo is not None and value < lo:
            raise ConfigError(f"{key}: must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    else:
        if lo is not None:
            bound, inclusive = lo
            if value < bound or (value == bound and not inclusive):
                raise ConfigError(
                    f"{key}: must be {'>=' if inclusive else '>'} {bound}, "
                    f"got {value}")
        if hi is not None:
            bound, inclusive = hi
            if value > bound or (value == bound and not inclusive):
                raise ConfigError(
                    f"{key}: must be {'<=' if inclusive else '<'} {bound}, "
                    f"got {value}")
    return value


def make_config(values):
    """Build a validated config from a plain dict (unknown keys rejected)."""
    clean = {}
    for key, value in values.items():
        clean[key] = _validate_field(key, value)
    return ExperimentConfig(**clean)


def parse_config(path=None, overrides=None):
    """JSON document merged over defaults, then `key=value` overrides."""
    values = {}
    if path:
        with open(path) as fh:
            text = fh.read().strip()
        if text:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ConfigError(f"{path}: top level must be a JSON object")
            values.update(doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        values[key.strip()] = _parse_override_value(raw.strip())
    return make_config(values)


def _parse_override_value(raw):
    """CLI override values: JSON if it parses (numbers, bools, lists),
    bare string otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)


def save_resolved_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
