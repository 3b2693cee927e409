"""Machine-readable experiment reports: metrics with explicit targets and slack."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__
from .config import RunConfig

__all__ = ["Metric", "Report", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Metric:
    """One checked quantity: value vs target at a tolerance, with provenance.

    ``slack`` records any finite-n allowance entering the comparison; a bound
    metric never passes silently without its slack printed.
    """

    value: float
    target: float
    tolerance: float
    passed: bool
    provenance: str
    comparison: str = "abs_diff"  # abs_diff | upper_bound | lower_bound | interval
    slack: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "target": self.target,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "provenance": self.provenance,
            "comparison": self.comparison,
            "slack": self.slack,
        }


@dataclass
class Report:
    experiment: str
    config: RunConfig
    metrics: dict[str, Metric] = field(default_factory=dict)
    series: dict[str, list[dict]] = field(default_factory=dict)  # name -> rows
    artifacts: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(metric.passed for metric in self.metrics.values())

    def add(self, name: str, metric: Metric) -> None:
        self.metrics[name] = metric

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "code_version": __version__,
            "experiment": self.experiment,
            "config": self.config.to_json(),
            "passed": self.passed,
            "metrics": {k: v.to_json() for k, v in self.metrics.items()},
            "artifacts": self.artifacts,
        }

    def save(self, out_dir, fmt: str = "json") -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, rows in self.series.items():
            path = out / f"{self.experiment}_{name}.csv"
            if rows:
                # the header is every key of every row, in first-seen order; a row
                # without a column (a talagrand mu row has no TI lambda) leaves it empty
                fields = list(dict.fromkeys(key for row in rows for key in row))
                with open(path, "w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=fields)
                    writer.writeheader()
                    writer.writerows(rows)
                self.artifacts.append(str(path))
        report_path = out / f"{self.experiment}_report.json"
        report_path.write_text(json.dumps(self.to_json(), indent=2, default=float))
        if fmt == "csv":
            csv_path = out / f"{self.experiment}_metrics.csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["metric", "value", "target", "tolerance", "passed", "provenance"])
                for name, metric in self.metrics.items():
                    writer.writerow([name, metric.value, metric.target, metric.tolerance,
                                     metric.passed, metric.provenance])
            self.artifacts.append(str(csv_path))
        return report_path

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.experiment}] {'PASS' if self.passed else 'FAIL'}"]
        for name, metric in self.metrics.items():
            status = "pass" if metric.passed else "FAIL"
            lines.append(
                f"  {status:4s} {name}: value={metric.value:.6g} target={metric.target:.6g} "
                f"tol={metric.tolerance:.3g} ({metric.provenance})"
                + (f" slack={metric.slack}" if metric.slack else "")
            )
        return lines
