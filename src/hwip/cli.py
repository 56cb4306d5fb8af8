"""Command-line entry point.

Subcommands: simulate | norms | certify | counterexample | report.
Every run validates its configuration, embeds it verbatim in the emitted
report JSON, and writes a human-readable summary whose every number is a
field of that JSON.  Exit codes: 0 all verdicts pass, 1 some verdict
failed, 2 configuration error.

Seed resolution order: --seed flag, then HWIP_SEED, then the config file,
then the published default.  Every run is single-threaded and all
reductions are sequential deterministic folds, so outputs are a pure
function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from .errors import CapacityError, ConfigError
from .holder import PolygonalPath, holder_max_exact, holder_norm_of_path
from .models import (
    build_renewal_chain,
    gaussian_contrast_model,
    model_from_dict,
    renewal_model,
    sample_model,
)
from .norms import counterexample_weights, empirical_weak_lp, mw_norm, mw_series_diagnostic
from .experiments import (
    CertificationReport,
    certify_dyadic_lemma,
    certify_martingale_inequality,
    certify_mw_inequality,
    fdd_convergence_test,
    holder_tightness_diagnostic,
    nontightness_experiment,
)
from .models import iid_model, mds_model
from .rng import DEFAULT_SEED, substream

_SUITES = ("dyadic-lemma", "martingale", "mw", "fdd", "tightness", "all")
_VARIANTS = ("adapted", "nonadapted")
_WEIGHTS = ("ones", "counterexample")


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("HWIP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"HWIP_SEED: not an integer: {env!r}") from exc
    if "seed" in config:
        return _expect_int(config, "seed")
    return DEFAULT_SEED


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


def _expect_int(
    doc: dict, key: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if maximum is not None and not minimum <= value <= maximum:
        raise ConfigError(f"{key}: must lie in {minimum}..{maximum}, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _at_least(minimum: int):
    """Check for an integer >= ``minimum`` (counts and sizes)."""
    return partial(_expect_int, minimum=minimum)


def _between(minimum: int, maximum: int):
    """Check for an integer in ``minimum..maximum``."""
    return partial(_expect_int, minimum=minimum, maximum=maximum)


def _expect_number(doc: dict, key: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _expect_p(doc: dict, key: str) -> float:
    """The moment exponent: a number > 2, so that alpha = 1/2 - 1/p > 0."""
    p = _expect_number(doc, key)
    if not p > 2.0:
        raise ConfigError(f"{key}: must be > 2, got {p}")
    return p


def _number_or_null(doc: dict, key: str) -> float | None:
    return None if doc[key] is None else _expect_number(doc, key)


def _one_of(choices: tuple[str, ...]):
    """Check for one of the strings ``choices``."""

    def check(doc: dict, key: str) -> str:
        value = doc[key]
        if value not in choices:
            raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
        return value

    return check


def _list_of(expect):
    """Check for a nonempty list whose every item passes ``expect``."""

    def check(doc: dict, key: str) -> list:
        value = doc[key]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key}: expected a nonempty list, got {value!r}")
        return [expect({key: item}, key) for item in value]

    return check


def _checked(config: dict, key: str, default, expect):
    """``expect(config, key)`` when the key is present, else ``default``."""
    return expect(config, key) if key in config else default


def _flag_or_config(args, config: dict, key: str, default, expect):
    """The ``--key`` flag when given, else the config key, else ``default``;
    a flag value passes the same ``expect`` check as a config value."""
    value = getattr(args, key)
    if value is not None:
        return expect({key: value}, key)
    return _checked(config, key, default, expect)


#: Checks for the scalar model keys, applied to each one present whatever
#: the kind; ``model_from_dict`` checks the string and list keys.  It is
#: passed the values as written, so the model's ``params`` keep them.
_MODEL_SCALARS = {
    "scale": _expect_number,
    "modulation": _expect_number,
    "mds_part": _number_or_null,
    "p": _expect_p,
    "depth": _at_least(2),
}


def _model_from_config(config: dict, default_kind: str = "iid"):
    doc = config.get("model", {"kind": default_kind})
    if not isinstance(doc, dict):
        raise ConfigError("model: expected an object")
    for key, expect in _MODEL_SCALARS.items():
        if key in doc:
            expect({f"model.{key}": doc[key]}, f"model.{key}")
    try:
        return model_from_dict(doc)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _write_outputs(out_dir: Path, name: str, report: CertificationReport, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        (out_dir / f"report_{name}.json").write_text(report.to_json() + "\n")
    if fmt in ("csv", "both") and report.replicate_rows:
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


def _cmd_simulate(args, config: dict, seed: int, out: Path, fmt: str) -> int:
    model = _model_from_config(config)
    n = _flag_or_config(args, config, "n", 1024, _at_least(1))
    replicates = _flag_or_config(args, config, "replicates", 1, _at_least(1))
    p = _flag_or_config(args, config, "p", 3.0, _expect_p)
    alpha = 0.5 - 1.0 / p
    rows = []
    stats = []
    for r in range(replicates):
        inc = sample_model(model, n, substream(seed, r))
        path = PolygonalPath.from_increments(inc)
        m_stat = holder_max_exact(path, alpha)
        stats.append(
            {
                "replicate": r,
                "holder_max": m_stat.value,
                "holder_norm": holder_norm_of_path(path, alpha),
                "terminal_sum": float(path.partial_sums[-1]),
            }
        )
        partial = path.partial_sums
        rows.extend((r, t, float(partial[t])) for t in range(len(partial)))
    report = CertificationReport(
        experiment="simulate",
        config={
            "model": model.to_dict(),
            "n": n,
            "replicates": replicates,
            "p": p,
            "seed": seed,
        },
        verdict="simulated",
        passed=True,
        body={"per_point": stats},
        replicate_rows=rows,
        replicate_columns=("replicate", "t", "partial_sum"),
    )
    _write_outputs(out, "simulate", report, fmt)
    return 0


def _cmd_norms(args, config: dict, seed: int, out: Path, fmt: str) -> int:
    which = args.which
    p = _flag_or_config(args, config, "p", 3.0, _expect_p)
    if which == "weak-lp":
        n_samples = _flag_or_config(args, config, "samples", 100000, _at_least(1))
        rng = substream(seed, 0)
        samples = rng.uniform(size=n_samples) ** (-1.0 / p)
        report = CertificationReport(
            experiment="weak_lp_pareto",
            config={"p": p, "samples": n_samples, "seed": seed},
            verdict="estimated",
            passed=True,
            body={"estimate": empirical_weak_lp(samples, p).to_dict()},
        )
        _write_outputs(out, "weak_lp", report, fmt)
        return 0
    model = _model_from_config(config, default_kind="renewal_chain")
    if which == "mw-norm":
        variant = _flag_or_config(args, config, "variant", "adapted", _one_of(_VARIANTS))
        J = _flag_or_config(args, config, "J", 12, _at_least(0))
        rep = mw_norm(model, variant, p, J)
        report = CertificationReport(
            experiment="mw_norm",
            config={"model": model.to_dict(), "p": p, "J": J, "variant": variant, "seed": seed},
            verdict="converged" if rep.converged else "not converged at J",
            passed=bool(rep.converged),
            body={"report": rep.to_dict()},
        )
        _write_outputs(out, "mw_norm", report, fmt)
        return 0 if rep.converged else 1
    if which == "mw-series":
        N = _flag_or_config(args, config, "N", 1 << 14, _at_least(2))
        weights = None
        weighted = _flag_or_config(args, config, "weights", "ones", _one_of(_WEIGHTS))
        if weighted == "counterexample":
            if model.chain is None:
                raise ConfigError("weights: 'counterexample' requires a renewal_chain model")
            weights = counterexample_weights(model.chain, N)
        diag = mw_series_diagnostic(model, p, weights, N)
        report = CertificationReport(
            experiment="mw_series",
            config={"model": model.to_dict(), "p": p, "N": N, "weights": weighted, "seed": seed},
            verdict=diag.verdict,
            passed=True,
            body={"report": diag.to_dict()},
            replicate_rows=list(diag.rows),
            replicate_columns=("n", "term", "partial_sum"),
        )
        _write_outputs(out, "mw_series", report, fmt)
        return 0
    raise ConfigError(f"which: unknown norms operation {which!r}")


def _cmd_certify(args, config: dict, seed: int, out: Path, fmt: str) -> int:
    suite = args.suite
    if suite not in _SUITES:
        raise ConfigError(f"suite: must be one of {_SUITES}")
    reports = []
    if suite in ("dyadic-lemma", "all"):
        models = [
            iid_model("normal"),
            mds_model("rademacher", modulation=0.5),
            renewal_model(3.0, 4),
        ]
        reports.append(
            certify_dyadic_lemma(
                models,
                paths_per_model=_checked(config, "paths_per_model", 200, _at_least(1)),
                n_max=_checked(config, "n_max", 256, _at_least(2)),
                p=_checked(config, "p", 3.0, _expect_p),
                seed=seed,
            )
        )
    if suite in ("martingale", "all"):
        reports.append(
            certify_martingale_inequality(
                mds_model("rademacher"),
                p=_checked(config, "p", 4.0, _expect_p),
                n_grid=_checked(config, "n_grid", [64, 256, 1024], _list_of(_at_least(1))),
                replicates=_checked(config, "replicates", 400, _at_least(1)),
                seed=seed,
            )
        )
    if suite in ("mw", "all"):
        reports.append(
            certify_mw_inequality(
                renewal_model(3.0, 4),
                variant="adapted",
                p=_checked(config, "p", 3.0, _expect_p),
                n_grid=_checked(config, "n_grid", [64, 256, 1024], _list_of(_at_least(1))),
                replicates=_checked(config, "replicates", 400, _at_least(1)),
                seed=seed,
            )
        )
    if suite in ("fdd", "all"):
        n = _checked(config, "n", 2048, _at_least(1))
        # Var(S_n) / n and the KS distance need two replicates.
        replicates = _checked(config, "replicates", 1000, _at_least(2))
        rep = fdd_convergence_test(
            mds_model("rademacher"),
            n=n,
            replicates=replicates,
            time_grid=_checked(config, "time_grid", [0.25, 0.5, 1.0], _list_of(_expect_number)),
            seed=seed,
        )
        threshold = _checked(config, "ks_threshold", 0.05, _expect_number)
        passed = all(ks <= threshold for _, ks in rep["fdd"])
        verdict = "consistent with the Gaussian limit" if passed else "KS distance above threshold"
        reports.append(
            CertificationReport(
                experiment="fdd_convergence",
                config={"n": n, "replicates": replicates, "seed": seed, "ks_threshold": threshold},
                verdict=verdict,
                passed=passed,
                body={"report": rep},
            )
        )
    if suite in ("tightness", "all"):
        spec = build_renewal_chain(
            _checked(config, "p", 3.0, _expect_p), _checked(config, "depth", 4, _at_least(2))
        )
        eps = spec.pi0 / (2.0 * 2.0 ** (1.0 / spec.p))
        reports.append(
            holder_tightness_diagnostic(
                gaussian_contrast_model(spec),
                p=spec.p,
                n_grid=_checked(config, "n_grid", [1024, 2048], _list_of(_at_least(1))),
                replicates=_checked(config, "replicates", 200, _at_least(1)),
                delta_grid=_checked(
                    config, "delta_grid", [0.25, 0.0625, 0.015625], _list_of(_expect_number)
                ),
                epsilon=_checked(config, "epsilon", eps, _expect_number),
                seed=seed,
            )
        )
    for rep in reports:
        _write_outputs(out, rep.experiment, rep, fmt)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_counterexample(args, config: dict, seed: int, out: Path, fmt: str) -> int:
    p = _flag_or_config(args, config, "p", 3.0, _expect_p)
    depth = _flag_or_config(args, config, "depth", 4, _at_least(2))
    K = _flag_or_config(args, config, "K", 2, _at_least(1))
    delta = _flag_or_config(args, config, "delta", 1e-3, _expect_number)
    j_level = _flag_or_config(args, config, "j", depth, _between(1, depth))
    replicates = _flag_or_config(args, config, "replicates", 200, _at_least(1))
    spec = build_renewal_chain(p, depth)
    rep = nontightness_experiment(
        spec, K=K, j_level=j_level, delta=delta, replicates=replicates, seed=seed,
    )
    _write_outputs(out, "counterexample", rep, fmt)
    exit_code = 0 if rep.passed else 1
    if args.contrast:
        con = nontightness_experiment(
            spec, K=K, j_level=j_level, delta=delta, replicates=replicates, seed=seed,
            process="gaussian",
        )
        _write_outputs(out, "counterexample_contrast", con, fmt)
    return exit_code


def _cmd_report(args, config: dict, seed: int, out: Path, fmt: str) -> int:
    src = Path(args.input or out)
    files = sorted(src.glob("report_*.json"))
    if not files:
        raise ConfigError(f"input: no report_*.json files under {src}")
    lines = []
    all_pass = True
    for f in files:
        doc = json.loads(f.read_text())
        passed = bool(doc.get("passed", False))
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

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="master seed (overrides HWIP_SEED and config)")
        sp.add_argument("--out", default="hwip_out", help="output directory")
        sp.add_argument("--format", choices=("json", "csv", "both"), default="both")

    sp = sub.add_parser("simulate", help="sample paths and their Hölder statistics")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--p", type=float)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("norms", help="weak-Lp estimates, dyadic norms and series diagnostics")
    common(sp)
    sp.add_argument("--which", choices=("weak-lp", "mw-norm", "mw-series"), required=True)
    sp.add_argument("--p", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--variant", choices=_VARIANTS)
    sp.add_argument("--J", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--weights", choices=_WEIGHTS)
    sp.set_defaults(func=_cmd_norms)

    sp = sub.add_parser("certify", help="run certification suites")
    common(sp)
    sp.add_argument("--suite", choices=_SUITES, required=True)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("counterexample", help="heavy-excursion non-tightness demonstration")
    common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--K", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--j", type=int, help="excursion level (default: depth)")
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--contrast", action="store_true", help="also run the variance-matched Gaussian null")
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("report", help="re-render summaries from existing report JSON files")
    common(sp)
    sp.add_argument("--input", metavar="DIR", help="directory holding report_*.json (default: --out)")
    sp.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = _resolve_seed(args, config)
        return args.func(args, config, seed, Path(args.out), args.format)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc} (reduce n, depth or replicates)", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
