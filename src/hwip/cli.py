"""Command-line entry point.

Subcommands: simulate | norms | certify | counterexample | report.
Each run reads its configuration through one spec, ``{key: (default,
check)}``, by ``hwip.config.read``: a key's value is its ``--key`` flag,
else the key of the ``--config`` file, else its default, and a flag passes
the same check as a config value.  ``simulate``, ``norms`` and
``counterexample`` get one flag per key of their specs; ``certify`` reads
its config only, through the spec of each suite in ``_SUITES``.  A config
key or flag that the run does not read exits 2 and names itself.  The
``model`` key is read by ``model_from_dict``, through the spec of the
model's kind (``hwip.models.MODEL_KINDS``); its errors read
``model.<key>: ...``.

Every run writes ``report_<name>.json``, which embeds its configuration
verbatim, and ``summary_<name>.txt``, a human-readable summary whose every
number is a field of that JSON, plus ``replicates_<name>.csv`` when the
report has replicate rows.  Exit codes: 0 all verdicts pass, 1 some
verdict failed, 2 a run the engine cannot take: ``configuration error:
<key>: ...`` for a key ill-typed, past a size budget, or naming a model or
variant without the oracle the run needs (each a ``ConfigError``, raised
where it is checked), and ``error: ...`` for a file or an allocation that
fails.

Seed resolution order: --seed flag, then the config file's ``seed``, then
the published default.  ``report`` uses no seed and reads no key, so it
takes neither ``--seed`` nor ``--config``.  Every reduction is a
sequential deterministic fold; ``counterexample`` makes one call for the
chain and, with ``--contrast``, its Gaussian null, which draws and sweeps
each row span by span on a worker thread of one pool, from its own stream
into its own value.  So outputs are a pure function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    ConfigError, at_least, expect_int, expect_number, expect_p, fraction, list_of, one_of,
    positive, read,
)
from .holder import PolygonalPath, holder_max_exact, holder_norm_of_path
from .models import (
    _VARIANTS,
    build_renewal_chain,
    gaussian_contrast_model,
    iid_model,
    mds_model,
    model_from_dict,
    renewal_model,
    sample_model,
)
from .norms import _WEIGHTS, empirical_weak_lp, mw_norm, mw_series_diagnostic
from .experiments import (
    STEP_BUDGET,
    CertificationReport,
    _check_steps,
    _subsequence_scale,
    certify_dyadic_lemma,
    certify_martingale_inequality,
    certify_mw_inequality,
    fdd_convergence_test,
    holder_tightness_diagnostic,
    nontightness_experiment,
)
from .rng import DEFAULT_SEED, substream


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    return expect_int(config, "seed") if "seed" in config else DEFAULT_SEED


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except FileNotFoundError as exc:
        raise ConfigError(f"config: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level document must be an object")
    return doc


def _model(config: dict, key: str):
    """Check for a model document; ``model_from_dict`` checks its keys."""
    doc = config[key]
    if not isinstance(doc, dict):
        raise ConfigError(f"{key}: expected an object, got {doc!r}")
    try:
        return model_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"{key}.{exc}") from exc


def _flag_value(text: str):
    """A flag's text as the config value it stands for: an integer, else a
    number, else the string itself.  The key's check then applies."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _read(spec: dict, args, config: dict, what: str, known=None) -> dict:
    """``read`` with the subcommand's flags: a flag outside ``spec`` is an
    unknown key, like a config key."""
    return read(spec, config, {key: getattr(args, key) for key in args.flags}, known, what)


# Specs, ``{key: (default, check)}``.  Every run shares the defaults, so
# they are immutable.  A default of None is derived by the run from the
# other keys; a missing ``model`` is the run's default kind.
_P3 = (3.0, expect_p)
_MODEL = (None, _model)
_SIMULATE = {"model": _MODEL, "n": (1024, at_least(1)), "replicates": (1, at_least(1)), "p": _P3}
_NORMS = {
    "weak-lp": {"p": _P3, "samples": (100000, at_least(1))},
    "mw-norm": {
        "model": _MODEL, "p": _P3, "variant": ("adapted", one_of(_VARIANTS)), "J": (12, at_least(0)),
    },
    "mw-series": {
        "model": _MODEL, "p": _P3, "N": (1 << 14, at_least(2)), "weights": ("ones", one_of(_WEIGHTS)),
    },
}
_COUNTEREXAMPLE = {
    "p": _P3,
    "depth": (4, at_least(2)),
    "K": (2, at_least(1)),
    "delta": (1e-3, fraction),
    "j": (None, expect_int),  # the excursion level, 1..depth; default depth
    "replicates": (200, at_least(1)),
}


def _write_outputs(out_dir: Path, name: str, report: CertificationReport) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"report_{name}.json").write_text(report.to_json() + "\n")
    if report.replicate_rows:
        with open(out_dir / f"replicates_{name}.csv", "w", newline="") as fp:
            report.write_replicates_csv(fp)
    summary = render_summary(report.to_dict())
    (out_dir / f"summary_{name}.txt").write_text(summary)
    sys.stdout.write(summary)


def render_summary(doc: dict, indent: str = "") -> str:
    """Render a report dict as indented key/value lines; every printed
    number is literally a field of the JSON document."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_summary(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} rows]")
            for row in value[:12]:
                cells = ", ".join(f"{k}={row[k]}" for k in sorted(row))
                lines.append(f"{indent}  {cells}")
            if len(value) > 12:
                lines.append(f"{indent}  ... ({len(value) - 12} more)")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines) + ("\n" if not indent else "")


# Each command returns its reports by file name; ``main`` writes them.


def _cmd_simulate(args, config: dict, seed: int) -> dict:
    v = _read(_SIMULATE, args, config, "simulate")
    model = v["model"] or model_from_dict({"kind": "iid"})
    n, replicates, p = v["n"], v["replicates"], v["p"]
    _check_steps("n", n, replicates)
    alpha = 0.5 - 1.0 / p
    paths = []
    stats = []
    for r in range(replicates):
        inc = sample_model(model, n, substream(seed, r))
        path = PolygonalPath.from_increments(inc)
        stats.append(
            {
                "replicate": r,
                "holder_max": holder_max_exact(path, alpha),
                "holder_norm": holder_norm_of_path(path, alpha),
                "terminal_sum": float(path.partial_sums[-1]),
            }
        )
        paths.append(path.partial_sums)
    report = CertificationReport(
        experiment="simulate",
        config={"model": model.to_dict(), "n": n, "replicates": replicates, "p": p, "seed": seed},
        verdict="simulated",
        passed=True,
        body={"per_point": stats},
        # The rows (replicate, t, S_t) are made only while the CSV is written:
        # a sum takes 8 bytes in its array and well over 100 as a row tuple.
        replicate_rows=(
            (r, t, value) for r, partial in enumerate(paths) for t, value in enumerate(map(float, partial))
        ),
        replicate_columns=("replicate", "t", "partial_sum"),
    )
    return {"simulate": report}


def _cmd_norms(args, config: dict, seed: int) -> dict:
    which = args.which
    v = _read(_NORMS[which], args, config, f"norms --which {which}")
    p = v["p"]
    if which == "weak-lp":
        if v["samples"] > STEP_BUDGET:
            raise ConfigError(f"samples: {v['samples']} draws are above the budget of {STEP_BUDGET}")
        samples = substream(seed, 0).uniform(size=v["samples"]) ** (-1.0 / p)
        report = CertificationReport(
            experiment="weak_lp_pareto",
            config={"p": p, "samples": v["samples"], "seed": seed},
            verdict="estimated",
            passed=True,
            body={"estimate": empirical_weak_lp(samples, p)},
        )
        return {"weak_lp": report}
    model = v["model"] or model_from_dict({"kind": "renewal_chain"})
    if which == "mw-norm":
        rep = mw_norm(model, v["variant"], p, v["J"])
        report = CertificationReport(
            experiment="mw_norm",
            config={
                "model": model.to_dict(), "p": p, "J": v["J"], "variant": v["variant"], "seed": seed,
            },
            verdict="converged" if rep["converged"] else "not converged at J",
            passed=bool(rep["converged"]),
            body={"report": rep},
        )
        return {"mw_norm": report}
    diag = mw_series_diagnostic(model, p, v["N"], v["weights"])
    report = CertificationReport(
        experiment="mw_series",
        config={"model": model.to_dict(), "p": p, "N": v["N"], "weights": v["weights"], "seed": seed},
        verdict=diag["verdict"],
        passed=True,
        body={"report": diag},
        replicate_rows=diag["rows"],
        replicate_columns=("n", "term", "partial_sum"),
    )
    return {"mw_series": report}


def _fdd(v: dict, seed: int) -> CertificationReport:
    threshold = v.pop("ks_threshold")
    rep = fdd_convergence_test(mds_model("rademacher"), seed=seed, **v)
    passed = all(ks <= threshold for _, ks in rep["fdd"])
    return CertificationReport(
        experiment="fdd_convergence",
        config={"n": v["n"], "replicates": v["replicates"], "seed": seed, "ks_threshold": threshold},
        verdict="consistent with the Gaussian limit" if passed else "KS distance above threshold",
        passed=passed,
        body={"report": rep},
    )


def _tightness(v: dict, seed: int) -> CertificationReport:
    spec = build_renewal_chain(v.pop("p"), v.pop("depth"))
    if v["epsilon"] is None:
        # The counterexample's threshold at K = 2; level 1 with delta = 1 passes its checks.
        v["epsilon"] = _subsequence_scale(spec, 2, 1, 1.0)[3]
    return holder_tightness_diagnostic(gaussian_contrast_model(spec), p=spec.p, seed=seed, **v)


# The martingale and mw suites fit a slope over their n grid.
_N_GRID = ((64, 256, 1024), list_of(at_least(1), distinct=True))

#: The certify suites: name -> (spec, runner).  A runner takes the values
#: read through the spec and the seed, and returns one report.
_SUITES = {
    "dyadic-lemma": (
        {"paths_per_model": (200, at_least(1)), "n_max": (256, at_least(2)), "p": _P3},
        lambda v, seed: certify_dyadic_lemma(
            [iid_model("normal"), mds_model("rademacher", modulation=0.5), renewal_model(3.0, 4)],
            seed=seed,
            **v,
        ),
    ),
    "martingale": (
        {"p": (4.0, expect_p), "n_grid": _N_GRID, "replicates": (400, at_least(1))},
        lambda v, seed: certify_martingale_inequality(mds_model("rademacher"), seed=seed, **v),
    ),
    "mw": (
        {"p": _P3, "n_grid": _N_GRID, "replicates": (400, at_least(1))},
        lambda v, seed: certify_mw_inequality(renewal_model(3.0, 4), "adapted", seed=seed, **v),
    ),
    "fdd": (
        {
            "n": (2048, at_least(1)),
            # Var(S_n) / n and the KS distance need two replicates.
            "replicates": (1000, at_least(2)),
            "time_grid": ((0.25, 0.5, 1.0), list_of(fraction)),
            "ks_threshold": (0.05, expect_number),
        },
        _fdd,
    ),
    "tightness": (
        {
            "p": _P3,
            "depth": (4, at_least(2)),
            "n_grid": ((1024, 2048), list_of(at_least(1))),
            "replicates": (200, at_least(1)),
            "delta_grid": ((0.25, 0.0625, 0.015625), list_of(fraction, decreasing=True)),
            "epsilon": (None, positive),  # default pi0 / (2 * 2^(1/p))
        },
        _tightness,
    ),
}


def _cmd_certify(args, config: dict, seed: int) -> dict:
    """``--suite all`` runs every suite and accepts a key if one suite reads it."""
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    known = {key for name in names for key in _SUITES[name][0]}
    what = f"certify --suite {args.suite}"
    values = [_read(_SUITES[name][0], args, config, what, known) for name in names]
    reports = [_SUITES[name][1](v, seed) for name, v in zip(names, values)]
    return {rep.experiment: rep for rep in reports}


def _cmd_counterexample(args, config: dict, seed: int) -> dict:
    v = _read(_COUNTEREXAMPLE, args, config, "counterexample")
    j_level = v["depth"] if v["j"] is None else v["j"]
    spec = build_renewal_chain(v["p"], v["depth"])
    reports = nontightness_experiment(
        spec, v["K"], j_level, v["delta"], v["replicates"], seed, contrast=args.contrast
    )
    return dict(zip(("counterexample", "counterexample_contrast"), reports))


def _cmd_report(args, out: Path) -> int:
    src = Path(args.input or out)
    files = sorted(src.glob("report_*.json"))
    if not files:
        raise ConfigError(f"input: no report_*.json files under {src}")
    lines = []
    all_pass = True
    for f in files:
        try:
            doc = json.loads(f.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"input: {f}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"input: {f}: top-level document must be an object")
        passed = doc.get("passed", False)
        if not isinstance(passed, bool):
            raise ConfigError(f"input: {f}: passed: expected true or false, got {passed!r}")
        all_pass = all_pass and passed
        lines.append(f"== {f.name} ==")
        lines.append(render_summary(doc))
    text = "\n".join(lines)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary_all.txt").write_text(text)
    sys.stdout.write(text)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwip",
        description="Hölder-norm statistics of partial-sum processes: simulation, "
        "norm estimation and inequality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, *specs):
        """A subcommand that reads keys: ``--config``, ``--seed``, ``--out``
        and one flag per key of ``specs``."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="master seed (overrides the config's seed)")
        sp.add_argument("--out", default="hwip_out", help="output directory")
        flags = {k: default for spec in specs for k, (default, _) in spec.items() if k != "model"}
        for key, default in flags.items():
            sp.add_argument(
                f"--{key}", type=_flag_value, help=None if default is None else f"default: {default}"
            )
        sp.set_defaults(func=func, flags=tuple(flags))
        return sp

    command("simulate", "sample paths and their Hölder statistics", _cmd_simulate, _SIMULATE)
    sp = command(
        "norms", "weak-Lp estimates, dyadic norms and series diagnostics", _cmd_norms,
        *_NORMS.values(),
    )
    sp.add_argument("--which", choices=tuple(_NORMS), required=True)
    sp = command("certify", "run certification suites", _cmd_certify)
    sp.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    sp = command(
        "counterexample", "heavy-excursion non-tightness demonstration", _cmd_counterexample,
        _COUNTEREXAMPLE,
    )
    sp.add_argument("--contrast", action="store_true", help="also run the variance-matched Gaussian null")
    # report reads no key, so it takes neither --config nor --seed
    sp = sub.add_parser("report", help="re-render summaries from existing report JSON files")
    sp.add_argument("--out", default="hwip_out", help="output directory")
    sp.add_argument("--input", metavar="DIR", help="directory holding report_*.json (default: --out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "report":
            return _cmd_report(args, out)
        config = _load_config(args.config)
        seed = _resolve_seed(args, config)
        config.pop("seed", None)  # read above, in its own order
        reports = args.func(args, config, seed)
        for name, report in reports.items():
            _write_outputs(out, name, report)
        return 0 if all(report.passed for report in reports.values()) else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
