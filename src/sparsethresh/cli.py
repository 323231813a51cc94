"""Command-line driver for dictionary analysis and the Monte Carlo experiments.

Subcommands:

  build-dict   construct a dictionary and write it as .dict.json
  analyze      print coherence and spectral statistics
  check        evaluate the closed-form conditions; exit 3 when any fails
  smin         smallest-singular-value concentration experiment
  moments      Monte Carlo moment estimates against their closed-form bounds
  recover      basis-pursuit success-rate sweep over (n_a, n_b)
  report       combined stats + conditions + budget search + scaling ratios

Every experiment is reproducible: outputs depend only on the dictionary, the
configuration and the seed, never on wall time or worker count.  A JSON config
file (``--config``) supplies defaults; explicit flags override it.

Exit codes: 0 success, 2 usage or input error, 3 condition-check failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import concentration, dictionary, recovery, svg, threshold

__all__ = ["main"]


# ============================================================
# serialization helpers
# ============================================================


def _sanitize(obj):
    """Make an object JSON-safe: numpy scalars to Python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=1) + "\n"


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_rows(path, rows: list[str]):
    _write_text(path, "\n".join(rows) + "\n")


def _out_dir(args, cfg) -> str:
    out = _opt(args, cfg, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


# ============================================================
# config and argument plumbing
# ============================================================


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


# JSON type of each config key, as its flag declares it; the list-valued keys
# take a flag-style string or a JSON list of the element type given here
_CONFIG_TYPES = {
    **dict.fromkeys(("na", "nb", "trials", "seed", "threads", "split"), int),
    **dict.fromkeys(("s", "gamma", "q"), float),
    **dict.fromkeys(("json", "renormalize", "maximize"), bool),
    **dict.fromkeys(("strategy", "out"), str),
}
_CONFIG_LISTS = {"support_a": int, "na_range": int, "nb_range": int, "strategies": str}
_JSON_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def _is_json(value, kind) -> bool:
    """Whether a decoded JSON value has ``kind``; bools are not numbers."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _opt(args, cfg: dict, name: str, default=None):
    """Flag value if given, else the config field checked against its type, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name not in cfg:
        return default
    value = cfg[name]
    kind = _CONFIG_TYPES.get(name)
    if kind is not None:
        ok, want = _is_json(value, kind), f"a JSON {_JSON_NAMES[kind]}"
    else:
        elem = _CONFIG_LISTS[name]
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(_is_json(v, elem) for v in value)
        )
        want = f"a string or a list of JSON {_JSON_NAMES[elem]}s"
    if not ok:
        raise ValueError(f"config '{name}' must be {want}, got {value!r}")
    return float(value) if kind is float else value


def _parse_values(text) -> list[int]:
    """Accept '3', '0,2,5', or 'lo:hi[:step]' (inclusive)."""
    if isinstance(text, list):
        return text
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"bad range {text!r}, expected lo:hi or lo:hi:step")
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        return list(range(lo, hi + 1, step))
    if "," in text:
        return [int(p) for p in text.split(",") if p != ""]
    return [int(text)]


def _parse_indices(text) -> list[int] | None:
    if text is None:
        return None
    if isinstance(text, list):
        return text
    return [int(p) for p in text.split(",") if p != ""]


def _source_int(value, field: str) -> int:
    """A JSON integer from the config 'dictionary' object; bools are rejected."""
    if not _is_json(value, int):
        raise ValueError(f"config 'dictionary.{field}' must be an integer, got {value!r}")
    return value


def _resolve_dictionary(args, cfg) -> dictionary.PartitionedDictionary:
    """One dictionary source: the --dict flag, or the config 'dictionary' field."""
    renorm = _opt(args, cfg, "renormalize", False)
    path = getattr(args, "dict", None)
    if path:
        return dictionary.load_dictionary(path, renormalize=renorm)
    source = cfg.get("dictionary")
    if source is None:
        raise ValueError("no dictionary given: pass --dict or a config 'dictionary' field")
    if not isinstance(source, dict) or len(source) == 0:
        raise ValueError("config 'dictionary' must be an object naming one source")
    kind_keys = [k for k in source if k in ("path", "mub", "two_onb", "random")]
    if len(kind_keys) != 1:
        raise ValueError(
            "config 'dictionary' must name exactly one of path/mub/two_onb/random"
        )
    kind = kind_keys[0]
    if kind == "path":
        if not isinstance(source["path"], str):
            raise ValueError("config 'dictionary.path' must be a string")
        return dictionary.load_dictionary(source["path"], renormalize=renorm)
    if kind == "mub":
        return dictionary.build_mub(_source_int(source["mub"], "mub"))
    if kind == "two_onb":
        return dictionary.build_two_onb(_source_int(source["two_onb"], "two_onb"))
    size = source["random"]
    if not isinstance(size, list) or len(size) != 2:
        raise ValueError("config 'dictionary.random' must be a list [m, N]")
    m, n = (_source_int(v, "random") for v in size)
    return dictionary.build_random_dictionary(
        m, n, _source_int(source.get("seed", 0), "seed"),
        _source_int(source.get("split", 0), "split"),
    )


# ============================================================
# shared output fragments
# ============================================================


def _stats_lines(D, stats) -> list[str]:
    def flagged(v, defined):
        return f"{v:.8f}" + ("" if defined else "  (block has < 2 columns)")

    return [
        f"m  = {D.m}",
        f"N  = {D.N}",
        f"Na = {D.Na}",
        f"Nb = {D.Nb}",
        f"mu   = {stats.mu:.8f}",
        f"mu_a = {flagged(stats.mu_a, stats.mu_a_defined)}",
        f"mu_b = {flagged(stats.mu_b, stats.mu_b_defined)}",
        f"norm_a  = {stats.spec_a:.8f}",
        f"norm_b  = {stats.spec_b:.8f}",
        f"norm_d  = {stats.spec_d:.8f}",
        f"welch   = {stats.welch:.8f}",
        f"tight_dev_a = {stats.tight_dev_a:.3e}",
        f"tight_dev_b = {stats.tight_dev_b:.3e}",
    ]


def _report_lines(report) -> list[str]:
    rows = [f"{'id':<10}{'lhs':>18}{'rhs':>18}  ok"]
    for c in report.conditions:
        rel = "<" if c.strict else "<="
        rhs = f"{c.rhs:.10g}" if math.isfinite(c.rhs) else "inf"
        rows.append(
            f"{c.id:<10}{c.lhs:>18.10g}{rhs:>18}  "
            f"{'yes' if c.satisfied else 'NO'} ({rel})"
        )
    rows.append(f"l0_uniqueness      = {report.l0_uniqueness}")
    rows.append(f"l0_l1_equivalence  = {report.l0_l1_equivalence}")
    return rows


def _params_from(args, cfg) -> threshold.TheoremParams:
    return threshold.TheoremParams(
        s=_opt(args, cfg, "s", 1.0),
        gamma=_opt(args, cfg, "gamma", 0.5),
        n_a=_opt(args, cfg, "na", 0),
        n_b=_opt(args, cfg, "nb", 0),
    )


# ============================================================
# subcommands
# ============================================================


def cmd_build_dict(args, cfg) -> int:
    seed = _opt(args, cfg, "seed", 0)
    if args.mub is not None:
        D = dictionary.build_mub(args.mub)
        default_name = f"mub{args.mub}.dict.json"
    elif args.two_onb is not None:
        D = dictionary.build_two_onb(args.two_onb)
        default_name = f"two_onb{args.two_onb}.dict.json"
    elif args.random is not None:
        m, n = args.random
        split = _opt(args, cfg, "split", 0)
        D = dictionary.build_random_dictionary(m, n, seed, split)
        default_name = f"random{m}x{n}_seed{seed}.dict.json"
    else:
        raise ValueError("pick a builder: --mub, --two-onb or --random")
    path = _opt(args, cfg, "out", default_name)
    dictionary.save_dictionary(D, path)
    stats = dictionary.analyze(D)
    for line in _stats_lines(D, stats):
        print(line)
    print(f"wrote {path}")
    return 0


def cmd_analyze(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    stats = dictionary.analyze(D)
    if _opt(args, cfg, "json", False):
        doc = {"m": D.m, "N": D.N, "Na": D.Na, "Nb": D.Nb, **stats.to_dict()}
        sys.stdout.write(_json_text(doc))
    else:
        for line in _stats_lines(D, stats):
            print(line)
    return 0


def cmd_check(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    stats = dictionary.analyze(D)
    if _opt(args, cfg, "maximize", False):
        result = threshold.max_sparsity_search(
            stats, D.N, D.Nb, s=_opt(args, cfg, "s", 1.0)
        )
        if _opt(args, cfg, "json", False):
            sys.stdout.write(_json_text(result.to_dict()))
        else:
            print(
                f"best n_a = {result.best_n_a}, n_b = {result.best_n_b}, "
                f"gamma = {result.best_gamma}, total = {result.best_total}"
            )
            for line in _report_lines(result.report):
                print(line)
        return 0
    params = _params_from(args, cfg)
    report = threshold.evaluate_conditions(stats, D.N, D.Nb, params)
    if _opt(args, cfg, "json", False):
        sys.stdout.write(_json_text(report.to_dict()))
    else:
        for line in _report_lines(report):
            print(line)
    return 0 if report.all_satisfied else 3


def cmd_smin(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    result = concentration.run_smin_trials(
        D,
        strategy=_opt(args, cfg, "strategy", "first-n"),
        n_a=_opt(args, cfg, "na", 1),
        n_b=_opt(args, cfg, "nb", 1),
        trials=_opt(args, cfg, "trials", 1000),
        s=_opt(args, cfg, "s", 1.0),
        master_seed=_opt(args, cfg, "seed", 0),
        support_a=_parse_indices(_opt(args, cfg, "support_a")),
        workers=_opt(args, cfg, "threads", 1),
    )
    out = _out_dir(args, cfg)
    _write_rows(os.path.join(out, "smin_trials.csv"), result.csv_rows())
    _write_text(os.path.join(out, "smin_summary.json"), _json_text(result.summary_dict()))
    _write_text(
        os.path.join(out, "smin_sigma_hist.svg"),
        svg.histogram_svg(
            result.histogram_counts,
            result.histogram_edges,
            title=f"sigma_min over {result.trials} draws "
            f"(n_a={result.n_a}, n_b={result.n_b})",
            x_label="sigma_min",
        ),
    )
    if _opt(args, cfg, "json", False):
        sys.stdout.write(_json_text(result.summary_dict()))
    else:
        print(
            f"trials = {result.trials}  failures = {result.failure_count}  "
            f"rate = {result.empirical_failure_rate!r}  bound = {result.lemma_bound!r}"
        )
        print(f"wrote {out}/smin_trials.csv, smin_summary.json, smin_sigma_hist.svg")
    return 0


def cmd_moments(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    result = concentration.estimate_moment(
        D,
        n_a=_opt(args, cfg, "na", 1),
        n_b=_opt(args, cfg, "nb", 1),
        q=_opt(args, cfg, "q", 4.0),
        trials=_opt(args, cfg, "trials", 2000),
        master_seed=_opt(args, cfg, "seed", 0),
        strategy=_opt(args, cfg, "strategy", "first-n"),
        support_a=_parse_indices(_opt(args, cfg, "support_a")),
    )
    out = _out_dir(args, cfg)
    _write_rows(os.path.join(out, "moment_trials.csv"), result.csv_rows())
    _write_text(
        os.path.join(out, "moment_summary.json"), _json_text(result.summary_dict())
    )
    bars = [
        ("xi_b estimate", result.estimate_b),
        ("xi_b upper95", result.upper95_b),
        ("xi_b bound", result.bound_b),
    ]
    if result.bound_x is not None:
        bars += [
            ("xi_x estimate", result.estimate_x),
            ("xi_x upper95", result.upper95_x),
            ("xi_x bound", result.bound_x),
        ]
    _write_text(
        os.path.join(out, "moment_bounds.svg"),
        svg.bars_svg(
            bars,
            title=f"moment roots vs bounds (q={result.q:g}, trials={result.trials})",
            y_label="moment root",
        ),
    )
    if _opt(args, cfg, "json", False):
        sys.stdout.write(_json_text(result.summary_dict()))
    else:
        print(
            f"q = {result.q:g}  estimate_b = {result.estimate_b!r}  "
            f"bound_b = {result.bound_b!r}"
        )
        print(f"wrote {out}/moment_trials.csv, moment_summary.json, moment_bounds.svg")
    return 0


def cmd_recover(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    na_values = _parse_values(_opt(args, cfg, "na_range", "0:2"))
    nb_values = _parse_values(_opt(args, cfg, "nb_range", "0:2"))
    strategies = _opt(args, cfg, "strategies", "first-n,random-baseline")
    if isinstance(strategies, str):
        strategies = [sname for sname in strategies.split(",") if sname]
    grid = recovery.run_recovery_sweep(
        D,
        na_values,
        nb_values,
        trials_per_cell=_opt(args, cfg, "trials", 50),
        strategies=tuple(strategies),
        master_seed=_opt(args, cfg, "seed", 0),
        workers=_opt(args, cfg, "threads", 1),
    )
    out = _out_dir(args, cfg)
    _write_rows(os.path.join(out, "recovery_rates.csv"), grid.csv_rows())
    _write_text(
        os.path.join(out, "recovery_summary.json"), _json_text(grid.summary_dict())
    )
    totals = sorted(
        {n_a + n_b for n_a in grid.na_values for n_b in grid.nb_values}
    )
    series = {}
    for strategy in grid.strategies:
        by_total = grid.rate_by_total(strategy)
        series[strategy] = [by_total[t] for t in totals]
    _write_text(
        os.path.join(out, "recovery_rates.svg"),
        svg.line_chart_svg(
            totals,
            series,
            title=f"basis-pursuit success rate ({grid.trials_per_cell} trials/cell)",
            x_label="n_a + n_b",
            y_label="success rate",
        ),
    )
    for si, strategy in enumerate(grid.strategies):
        _write_text(
            os.path.join(out, f"recovery_heatmap_{strategy}.svg"),
            svg.heatmap_svg(
                grid.rates[si],
                x_ticks=grid.nb_values,
                y_ticks=grid.na_values,
                title=f"success rate, strategy {strategy}",
                x_label="n_b",
                y_label="n_a",
            ),
        )
    if _opt(args, cfg, "json", False):
        sys.stdout.write(_json_text(grid.summary_dict()))
    else:
        print(
            f"cells = {len(grid.strategies) * len(grid.na_values) * len(grid.nb_values)}"
            f"  trials/cell = {grid.trials_per_cell}"
        )
        print(f"wrote {out}/recovery_rates.csv, recovery_summary.json, recovery_rates.svg")
    return 0


def cmd_report(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    stats = dictionary.analyze(D)
    params = _params_from(args, cfg)
    doc = {
        "m": D.m,
        "N": D.N,
        "Na": D.Na,
        "Nb": D.Nb,
        "stats": stats.to_dict(),
        "params": {
            "s": params.s,
            "gamma": params.gamma,
            "n_a": params.n_a,
            "n_b": params.n_b,
        },
        "conditions": threshold.evaluate_conditions(stats, D.N, D.Nb, params).to_dict(),
        "search": threshold.max_sparsity_search(
            stats, D.N, D.Nb, s=params.s
        ).to_dict(),
        "scaling": threshold.scaling_report(stats, D).to_dict(),
    }
    text = _json_text(doc)
    out = _opt(args, cfg, "out")
    if out:
        _write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


# ============================================================
# parser
# ============================================================


def _add_common(sp, dict_arg: bool = True):
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--json", action="store_true", default=None,
                    help="print the JSON summary to stdout")
    if dict_arg:
        sp.add_argument("--dict", help="path to a .dict.json dictionary file")
        sp.add_argument("--renormalize", action="store_true", default=None,
                        help="rescale imperfectly normalized columns on load")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsethresh",
        description="sparsity thresholds, singular-value concentration and "
        "basis-pursuit experiments for partitioned dictionaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-dict", help="construct and save a dictionary")
    _add_common(sp, dict_arg=False)
    sp.add_argument("--mub", type=int, help="odd prime p for the p+1-basis dictionary")
    sp.add_argument("--two-onb", type=int, dest="two_onb",
                    help="m for the identity+Fourier dictionary")
    sp.add_argument("--random", type=int, nargs=2, metavar=("M", "N"),
                    help="random unit columns of C^M, N of them")
    sp.add_argument("--split", type=int, help="block-A size for --random")
    sp.add_argument("--seed", type=int, help="seed for --random")
    sp.add_argument("--out", "-o", help="output path (.dict.json)")
    sp.set_defaults(func=cmd_build_dict)

    sp = sub.add_parser("analyze", help="print dictionary statistics")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("check", help="evaluate the closed-form conditions")
    _add_common(sp)
    sp.add_argument("--na", type=int, help="block-A budget n_a")
    sp.add_argument("--nb", type=int, help="block-B budget n_b")
    sp.add_argument("--s", type=float, help="confidence exponent s >= 1")
    sp.add_argument("--gamma", type=float, help="budget split in [0, 1]")
    sp.add_argument("--maximize", action="store_true", default=None,
                    help="search the largest feasible (n_a, n_b) over gamma")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("smin", help="sigma_min concentration experiment")
    _add_common(sp)
    sp.add_argument("--na", type=int)
    sp.add_argument("--nb", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--strategy", choices=("first-n", "spread", "prescribed",
                                           "random-baseline"))
    sp.add_argument("--support-a", dest="support_a",
                    help="comma-separated A indices for --strategy prescribed")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--threads", type=int, help="worker process count")
    sp.set_defaults(func=cmd_smin)

    sp = sub.add_parser("moments", help="moment estimates vs closed-form bounds")
    _add_common(sp)
    sp.add_argument("--na", type=int)
    sp.add_argument("--nb", type=int)
    sp.add_argument("--q", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--strategy", choices=("first-n", "spread", "prescribed"))
    sp.add_argument("--support-a", dest="support_a")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("recover", help="basis-pursuit success-rate sweep")
    _add_common(sp)
    sp.add_argument("--na-range", dest="na_range", help="e.g. 0:3 or 0,2,4")
    sp.add_argument("--nb-range", dest="nb_range", help="e.g. 0:3")
    sp.add_argument("--trials", type=int, help="trials per grid cell")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--strategies", help="comma list from: first-n, spread, "
                                         "random-baseline")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--threads", type=int)
    sp.set_defaults(func=cmd_recover)

    sp = sub.add_parser("report", help="combined JSON report for a dictionary")
    _add_common(sp)
    sp.add_argument("--na", type=int)
    sp.add_argument("--nb", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (dictionary.DictionaryFormatError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
