"""Digests of a run's output files, and the check against a recorded reference.

A digest keeps, per output file:

* ``sha256`` of the bytes, used only for the "report bytes identical" line;
* for ``report_*.json``: every leaf field, flattened to ``path -> value``;
* for ``replicates_*.csv``: the header, the row count, a hash of each column
  of integers or strings, and for each float column the sum of absolute
  values and up to ``PROBES`` evenly spaced values.

``compare`` counts a run as failed when the exit codes, the set of files, a
verdict, a string or integer field, or a float field beyond
``REL_TOL``/``ABS_TOL`` differs from the reference.  Byte identity is
reported separately and does not count, so a documented last-bit change in
a float stays visible without failing the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
PROBES = 256


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _column_kind(cells: list[str]) -> str:
    for kind, parse in (("int", int), ("float", float)):
        try:
            for cell in cells:
                parse(cell)
        except ValueError:
            continue
        return kind
    return "str"


def _csv_digest(text: str) -> dict:
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    columns = {}
    for c, name in enumerate(header):
        cells = [row[c] for row in body]
        kind = _column_kind(cells)
        if kind == "float":
            values = [float(x) for x in cells]
            step = max(1, math.ceil(len(values) / PROBES))
            columns[name] = {
                "abs_sum": math.fsum(abs(v) for v in values),
                "probes": values[::step],
            }
        else:
            columns[name] = {"sha256": hashlib.sha256("\n".join(cells).encode()).hexdigest()}
    return {"header": header, "rows": len(body), "columns": columns}


def digest_outputs(out_dir: Path, exit_codes: list[int]) -> dict:
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if path.name.startswith("report_") and path.suffix == ".json":
            fields: dict = {}
            _flatten(json.loads(data), "", fields)
            entry["fields"] = fields
        elif path.suffix == ".csv":
            entry["csv"] = _csv_digest(data.decode())
        files[path.name] = entry
    return {"exit_codes": list(exit_codes), "files": files}


def _same(ref, got) -> bool:
    if type(ref) is not type(got):
        return False
    if isinstance(ref, float):
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return ref == got


def _compare_csv(name: str, ref: dict, got: dict, errors: list[str]) -> None:
    for key in ("header", "rows"):
        if ref[key] != got[key]:
            errors.append(f"{name}: {key} {got[key]!r} != reference {ref[key]!r}")
            return
    for col, r in ref["columns"].items():
        g = got["columns"][col]
        if r.keys() != g.keys():
            errors.append(f"{name}: column {col} changed kind")
        elif "sha256" in r:
            if r != g:
                errors.append(f"{name}: column {col} differs")
        elif not (
            _same(r["abs_sum"], g["abs_sum"])
            and len(r["probes"]) == len(g["probes"])
            and all(_same(a, b) for a, b in zip(r["probes"], g["probes"]))
        ):
            errors.append(f"{name}: float column {col} differs beyond tolerance")


def compare(ref: dict, got: dict) -> list[str]:
    """Differences between two digests that count as a failed run."""
    errors = []
    if ref["exit_codes"] != got["exit_codes"]:
        errors.append(f"exit codes {got['exit_codes']} != reference {ref['exit_codes']}")
    if ref["files"].keys() != got["files"].keys():
        errors.append(f"output files {sorted(got['files'])} != reference {sorted(ref['files'])}")
        return errors
    for name, r in ref["files"].items():
        g = got["files"][name]
        if "fields" in r:
            if r["fields"].keys() != g["fields"].keys():
                errors.append(f"{name}: field set differs")
                continue
            for path, value in r["fields"].items():
                if not _same(value, g["fields"][path]):
                    errors.append(f"{name}: {path} = {g['fields'][path]!r}, reference {value!r}")
        elif "csv" in r:
            _compare_csv(name, r["csv"], g["csv"], errors)
    return errors


def bytes_identical(ref: dict, got: dict) -> bool:
    return {k: v["sha256"] for k, v in ref["files"].items()} == {
        k: v["sha256"] for k, v in got["files"].items()
    }
