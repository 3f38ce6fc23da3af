"""Structured verification reports.

Every check record ties a computed fact to a stable anchor string naming
the mathematical statement it instantiates (or the tag "plumbing" for
infrastructure checks).  Reports render deterministically to text and to
JSON, and JSON reports round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    name: str
    anchor: str
    values: dict
    passed: bool
    negative: bool = False  # the check asserts a predicted failure/counterexample

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "values": self.values,
            "passed": self.passed,
            "negative": self.negative,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckRecord":
        return cls(
            name=data["name"],
            anchor=data["anchor"],
            values=data["values"],
            passed=data["passed"],
            negative=data.get("negative", False),
        )


@dataclass
class CellReport:
    title: str
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def extend(self, records) -> None:
        self.records.extend(records)

    def failing(self) -> list:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_json(cls, text: str) -> "CellReport":
        data = json.loads(text)
        report = cls(title=data["title"])
        report.records = [CheckRecord.from_dict(r) for r in data["records"]]
        return report

    def render_text(self) -> str:
        lines = [f"== {self.title} =="]
        # failing records first, then passing, each group in stable order
        ordered = self.failing() + [r for r in self.records if r.passed]
        for r in ordered:
            status = "PASS" if r.passed else "FAIL"
            if r.negative:
                status += " (predicted negative)"
            values = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(r.values.items()))
            lines.append(f"[{status}] {r.name} <{r.anchor}> {values}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
