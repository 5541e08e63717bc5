"""Reproducible run records.

Every command emits a Report: the command name, the fully resolved
configuration (no hidden defaults), a result payload, wall time, and the
tool version.  Payload serialization is canonical (sorted keys, repr
floats), so identical configurations produce byte-identical payloads at
any worker count; timing lives outside the payload for that reason.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__


def jsonable(value):
    """Map values onto JSON types; exact rationals become 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    return value


@dataclass(frozen=True)
class Report:
    command: str
    config: dict
    payload: dict
    timing_s: float
    version: str = __version__

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config": jsonable(self.config),
            "payload": jsonable(self.payload),
            "timing_s": self.timing_s,
            "version": self.version,
        }
        return json.dumps(doc, sort_keys=True)


class timer:
    """Context manager measuring wall time in seconds."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def make_report(command: str, config: dict, payload: dict, elapsed: float) -> Report:
    return Report(command=command, config=config, payload=payload,
                  timing_s=elapsed)


def write_jsonl(report: Report, path) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
