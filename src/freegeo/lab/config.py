"""Flat key-value run configurations with typed, schema-validated keys."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["RunConfig", "ConfigError", "SCHEMAS"]


class ConfigError(ValueError):
    pass


# key -> (type, default); default None means required
SCHEMAS: dict[str, dict[str, tuple]] = {
    "counterexample": {
        "epsilon": (float, 0.01),
        "k": (int, 8),
        "l": (int, 8),
        "samples": (int, 50),
        "seed": (int, 0),
    },
    "talagrand": {
        "n": (int, 8),
        "m": (int, 1),
        "c": (float, 1.0),
        "quartic": (float, 0.0),
        "tilt": (float, 10.0),
        "samples": (int, 128),
        "seeds": (int, 1),
        "seed": (int, 0),
        "ti_nodes": (int, 8),
    },
    "geodesic": {
        "dim": (int, 1),
        "mean0": (str, "0"),
        "cov0": (str, "1"),
        "mean1": (str, "0"),
        "cov1": (str, "4"),
        "grid": (str, "0.1,0.25,0.5,0.75,0.9"),
        "samples": (int, 4000),
        "knn_k": (int, 4),
        "tolerance": (float, 0.05),
        "seed": (int, 0),
    },
    "moment": {
        "mu": (str, "delta0"),  # delta0 | gaussian | comma-separated atoms
        "t": (float, 1.0),
        "iterations": (int, 25),
        "quantiles": (int, 512),
        "grid_points": (int, 4096),
        "grid_halfwidth": (float, 0.0),  # 0 -> automatic
        "seed": (int, 0),
        # matrix-scale variant (envelope-gradient sampler), behind a flag
        "matrix_scale": (bool, False),
        "n": (int, 6),
        "m": (int, 1),
        "target": (float, 0.0),  # scalar-tuple target a I per slot
        "type_epsilon": (float, 0.02),
        "radius": (float, 2.5),
        "count": (int, 200),
    },
    "qfconv": {
        "c": (float, 1.0),
        "m": (int, 1),
        "formulas": (str, "re tr(x1*x1');re tr(x1);re tr(x1*x1'*x1*x1')"),
        "n_ladder": (str, "8,16,32,64"),
        "samples": (int, 96),
        "seed": (int, 0),
    },
    "sample": {
        "n": (int, 8),
        "m": (int, 1),
        "c": (float, 1.0),
        "potential": (str, ""),  # formula text; empty -> c*q
        "count": (int, 128),
        "seed": (int, 0),
    },
    "entropy": {
        "n": (int, 8),
        "m": (int, 1),
        "c": (float, 1.0),
        "potential": (str, ""),
        "ti_nodes": (int, 16),
        "samples_per_node": (int, 128),
        "seed": (int, 0),
    },
}


def _coerce(raw: str, typ):
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    if typ is bool:
        word = raw.lower()
        if word not in ("1", "0", "true", "false", "yes", "no"):
            raise ValueError(f"expected 1/0/true/false/yes/no, got {raw!r}")
        return word in ("1", "true", "yes")
    return raw


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    params: dict

    @classmethod
    def from_file(cls, path, experiment: str | None = None,
                  overrides: dict | None = None) -> "RunConfig":
        raw: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            raw[key] = val
        exp = experiment or raw.pop("experiment", None)
        if exp is None:
            raise ConfigError("missing 'experiment' key and no experiment given")
        raw.pop("experiment", None)
        return cls.from_dict(exp, raw, overrides)

    @classmethod
    def from_dict(cls, experiment: str, raw: dict, overrides: dict | None = None) -> "RunConfig":
        if experiment not in SCHEMAS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; expected one of {sorted(SCHEMAS)}"
            )
        schema = SCHEMAS[experiment]
        params = {}
        for key, val in raw.items():
            if key in ("out", "format"):
                continue
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}")
            typ, _ = schema[key]
            try:
                params[key] = _coerce(str(val), typ) if not isinstance(val, typ) else val
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
        for key, (typ, default) in schema.items():
            if key not in params:
                if default is None:
                    raise ConfigError(f"missing required key {key!r}")
                params[key] = default
        if overrides:
            for key, val in overrides.items():
                if val is None:
                    continue
                typ, _ = schema.get(key, (type(val), None))
                params[key] = _coerce(str(val), typ)
        return cls(experiment, params)

    def __getitem__(self, key):
        return self.params[key]

    def to_json(self) -> dict:
        return {"experiment": self.experiment, **self.params}


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def parse_str_list(text: str) -> list[str]:
    return [tok.strip() for tok in str(text).split(";") if tok.strip()]
