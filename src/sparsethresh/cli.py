"""Command-line driver for dictionary analysis and the Monte Carlo experiments.

Subcommands:

  build-dict   construct a dictionary and write it as .dict.npy
  analyze      print coherence and spectral statistics
  check        evaluate the closed-form conditions; exit 3 when any fails
  smin         smallest-singular-value concentration experiment; with --q
               also the Xi_B and Xi_X moment estimates against their bounds
  recover      basis-pursuit success-rate sweep over (n_a, n_b)
  report       combined stats + conditions + budget search + scaling ratios

Every experiment is reproducible: outputs depend only on the dictionary, the
configuration and the seed, never on wall time or worker count.  A JSON config
file (``--config``) supplies defaults; explicit flags override it.

Exit codes: 0 success, 2 usage or input error, 3 condition-check failure,
4 numerical failure.  ``main(argv)`` returns the exit code and may be called
repeatedly in one process; it builds its parser once per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


# ============================================================
# options: each one's type and help, resolved from flag, config or default
# ============================================================


# name -> (type, help); ``[int]`` and ``[str]`` are list options, which take a
# flag-style string or a JSON list of that element type.  Every name is both
# the long flag (underscores as dashes) and the config key.
_OPTIONS = {
    "na": (int, "block-A budget n_a"),
    "nb": (int, "block-B budget n_b"),
    "s": (float, "confidence exponent s >= 1"),
    "gamma": (float, "budget split in [0, 1]"),
    "q": (float, "moment order q, at least its validity floor"),
    "trials": (int, "number of trials (per grid cell for recover)"),
    "seed": (int, "master seed (for build-dict: the seed of --random)"),
    "threads": (int, "worker process count"),
    "split": (int, "block-A size for --random"),
    "strategy": (str, "A-support: first-n, spread, prescribed or random-baseline"),
    "support_a": ([int], "A indices for --strategy prescribed, e.g. 3,1 or 0:2"),
    "na_range": ([int], "n_a values, e.g. 0:3 or 0,2,4"),
    "nb_range": ([int], "n_b values, e.g. 0:3"),
    "strategies": ([str], "comma list from: first-n, spread, random-baseline"),
    "out": (str, "output directory; for build-dict and report an output file"),
    "json": (bool, "print the JSON summary to stdout"),
    "renormalize": (bool, "rescale imperfectly normalized columns on load"),
    "maximize": (bool, "search the largest feasible (n_a, n_b) over gamma"),
}
_JSON_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def _unique_keys(pairs) -> dict:
    """A config object from its (key, value) pairs; a key given twice is
    refused, where ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key '{key}' is given twice")
        obj[key] = value
    return obj


def _load_config(args) -> dict:
    path = args.config
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # also nesting past the limit
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


def _is_json(value, kind) -> bool:
    """Whether a decoded JSON value has ``kind``; bools are not numbers."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(name: str, value):
    """A config value checked against its option's type; numbers become floats."""
    if name not in _OPTIONS:
        raise ValueError(
            f"unknown config key '{name}': each key must be 'dictionary' "
            "or an option of some subcommand"
        )
    kind = _OPTIONS[name][0]
    if isinstance(kind, list):
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(_is_json(v, kind[0]) for v in value)
        )
        want = f"a string or a list of JSON {_JSON_NAMES[kind[0]]}s"
    else:
        ok, want = _is_json(value, kind), f"a JSON {_JSON_NAMES[kind]}"
    if not ok:
        raise ValueError(f"config '{name}' must be {want}, got {value!r}")
    return float(value) if kind is float else value


def _parse_list(text: str, elem):
    """Comma-separated values, or for integers also 'lo:hi[:step]' (inclusive),
    which stays a lazy range: its reader takes no more values than it can use."""
    if elem is not int:
        return [elem(p) for p in text.split(",") if p != ""]
    try:
        if ":" not in text:
            return [int(p) for p in text.split(",") if p != ""]
        parts = [int(p) for p in text.split(":")]
        if len(parts) > 3:
            raise ValueError
    except ValueError:
        raise ValueError(f"expected integers as a,b,c or lo:hi[:step], got {text!r}") from None
    lo, hi, step = parts if len(parts) == 3 else (*parts, 1)
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}: lo:hi[:step] needs lo <= hi and step >= 1")
    return range(lo, hi + 1, step)


def _resolve(args, cfg: dict, defaults: dict) -> None:
    """Check every config value, then set each option in ``defaults`` on
    ``args``: the flag if given, else the config value, else the default."""
    checked = {
        name: _config_value(name, value) for name, value in cfg.items() if name != "dictionary"
    }
    for name, default in defaults.items():
        value = getattr(args, name)
        source = "--" + name.replace("_", "-")
        if value is None:
            value, source = checked.get(name, default), f"config '{name}'"
        kind = _OPTIONS[name][0]
        if isinstance(kind, list) and isinstance(value, str):
            try:
                value = _parse_list(value, kind[0])
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
        setattr(args, name, value)


def _source_int(value, field: str) -> int:
    """A JSON integer from the config 'dictionary' object; bools are rejected."""
    if not _is_json(value, int):
        raise ValueError(f"config 'dictionary.{field}' must be an integer, got {value!r}")
    return value


def _build(kind: str, value, seed: int, split: int):
    """Build the dictionary a build-dict flag or config 'dictionary' key names
    (mub, two_onb or random); return it with its default file name."""
    if kind == "mub":
        return dictionary.build_mub(value), f"mub{value}.dict.npy"
    if kind == "two_onb":
        return dictionary.build_two_onb(value), f"two_onb{value}.dict.npy"
    m, n = value
    D = dictionary.build_random_dictionary(m, n, seed, split)
    return D, f"random{m}x{n}_seed{seed}.dict.npy"


def _resolve_dictionary(args, cfg) -> dictionary.PartitionedDictionary:
    """One dictionary source: the --dict flag, or the config 'dictionary' field."""
    if args.dict:
        return dictionary.load_dictionary(args.dict, renormalize=args.renormalize)
    source = cfg.get("dictionary")
    if source is None:
        raise ValueError("no dictionary given: pass --dict or a config 'dictionary' field")
    if not isinstance(source, dict) or len(source) == 0:
        raise ValueError("config 'dictionary' must be an object naming one source")
    for key in source:
        if key not in ("path", "mub", "two_onb", "random", "seed", "split"):
            raise ValueError(f"unknown config key 'dictionary.{key}'")
    seed, split = (_source_int(source.get(key, 0), key) for key in ("seed", "split"))
    kind_keys = [k for k in source if k not in ("seed", "split")]
    if len(kind_keys) != 1:
        raise ValueError(
            "config 'dictionary' must name exactly one of path/mub/two_onb/random"
        )
    kind = kind_keys[0]
    if kind == "path":
        if not isinstance(source["path"], str):
            raise ValueError("config 'dictionary.path' must be a string")
        return dictionary.load_dictionary(source["path"], renormalize=args.renormalize)
    if kind != "random":
        return _build(kind, _source_int(source[kind], kind), 0, 0)[0]
    size = source["random"]
    if not isinstance(size, list) or len(size) != 2:
        raise ValueError("config 'dictionary.random' must be a list [m, N]")
    m, n = (_source_int(v, "random") for v in size)
    return _build(kind, (m, n), seed, split)[0]


# ============================================================
# shared output fragments
# ============================================================


def _stats_lines(stats) -> list[str]:
    def flagged(v, defined):
        return f"{v:.8f}" + ("" if defined else "  (block has < 2 columns)")

    return [
        f"m  = {stats.m}",
        f"N  = {stats.N}",
        f"Na = {stats.Na}",
        f"Nb = {stats.Nb}",
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


def _emit(args, files: dict[str, str], summary: str, line: str) -> int:
    """Write ``files`` (name -> text) into --out, then print the JSON summary
    or ``line`` and the names written."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        _write_text(os.path.join(args.out, name), text)
    if args.json:
        sys.stdout.write(summary)
    else:
        print(line)
        print(f"wrote {args.out}/{', '.join(files)}")
    return 0


def _csv_text(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


# ============================================================
# subcommands
# ============================================================


def cmd_build_dict(args, cfg) -> int:
    given = [kind for kind in ("mub", "two_onb", "random") if getattr(args, kind) is not None]
    if not given:
        raise ValueError("pick a builder: --mub, --two-onb or --random")
    D, default_name = _build(given[0], getattr(args, given[0]), args.seed, args.split)
    path = default_name if args.out is None else args.out
    dictionary.save_dictionary(D, path)
    for line in _stats_lines(D.stats):
        print(line)
    print(f"wrote {path}")
    return 0


def cmd_analyze(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    if args.json:
        doc = {"m": D.m, "N": D.N, "Na": D.Na, "Nb": D.Nb, **D.stats.to_dict()}
        sys.stdout.write(_json_text(doc))
    else:
        for line in _stats_lines(D.stats):
            print(line)
    return 0


def cmd_check(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    params = threshold.TheoremParams(s=args.s, gamma=args.gamma, n_a=args.na, n_b=args.nb)
    if not args.maximize:  # the search ignores n_a and n_b
        D.check_budgets(params.n_a, params.n_b)
    stats = D.stats
    if args.maximize:  # reports the best budget found, so never fails
        result = threshold.max_sparsity_search(stats, s=params.s)
        report, ok = result.report, True
        head = [
            f"best n_a = {result.best_n_a}, n_b = {result.best_n_b}, "
            f"gamma = {result.best_gamma}, total = {result.best_total}"
        ]
    else:
        result = report = threshold.evaluate_conditions(stats, params)
        ok, head = report.all_satisfied, []
    if args.json:
        sys.stdout.write(_json_text(result.to_dict()))
    else:
        for line in head + _report_lines(report):
            print(line)
    return 0 if ok else 3


def cmd_smin(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    result = concentration.run_smin_trials(
        D,
        strategy=args.strategy,
        n_a=args.na,
        n_b=args.nb,
        trials=args.trials,
        s=args.s,
        master_seed=args.seed,
        support_a=args.support_a,
        workers=args.threads,
        q=args.q,
    )
    summary = _json_text(result.summary_dict())
    files = {
        "smin_trials.csv": _csv_text(result.csv_rows()),
        "smin_summary.json": summary,
        "smin_sigma_hist.svg": svg.histogram_svg(
            result.histogram_counts,
            result.histogram_edges,
            title=f"sigma_min over {result.trials} draws "
            f"(n_a={result.n_a}, n_b={result.n_b})",
            x_label="sigma_min",
        ),
    }
    line = (f"trials = {result.trials}  failures = {result.failure_count}  "
            f"rate = {result.empirical_failure_rate!r}  bound = {result.lemma_bound!r}")
    moments = result.moments
    if moments is not None:
        bars = [
            ("xi_b estimate", moments.estimate_b),
            ("xi_b upper95", moments.upper95_b),
            ("xi_b bound", moments.bound_b),
        ]
        if moments.bound_x is not None:
            bars += [
                ("xi_x estimate", moments.estimate_x),
                ("xi_x upper95", moments.upper95_x),
                ("xi_x bound", moments.bound_x),
            ]
        files["smin_moment_bounds.svg"] = svg.bars_svg(
            bars,
            title=f"moment roots vs bounds (q={moments.q:g}, trials={moments.trials})",
            y_label="moment root",
        )
        line += (f"  q = {moments.q:g}  estimate_b = {moments.estimate_b!r}  "
                 f"bound_b = {moments.bound_b!r}")
    return _emit(args, files, summary, line)


def cmd_recover(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    grid = recovery.run_recovery_sweep(
        D,
        args.na_range,
        args.nb_range,
        trials_per_cell=args.trials,
        strategies=tuple(args.strategies),
        master_seed=args.seed,
        workers=args.threads,
    )
    totals = sorted({n_a + n_b for n_a in grid.na_values for n_b in grid.nb_values})
    series = {}
    for strategy in grid.strategies:
        by_total = grid.rate_by_total(strategy)
        series[strategy] = [by_total[t] for t in totals]
    summary = _json_text(grid.summary_dict())
    files = {
        "recovery_rates.csv": _csv_text(grid.csv_rows()),
        "recovery_summary.json": summary,
        "recovery_rates.svg": svg.line_chart_svg(
            totals,
            series,
            title=f"basis-pursuit success rate ({grid.trials_per_cell} trials/cell)",
            x_label="n_a + n_b",
            y_label="success rate",
        ),
    }
    for si, strategy in enumerate(grid.strategies):
        files[f"recovery_heatmap_{strategy}.svg"] = svg.heatmap_svg(
            grid.rates[si],
            x_ticks=grid.nb_values,
            y_ticks=grid.na_values,
            title=f"success rate, strategy {strategy}",
            x_label="n_b",
            y_label="n_a",
        )
    return _emit(
        args, files, summary,
        f"cells = {len(grid.strategies) * len(grid.na_values) * len(grid.nb_values)}"
        f"  trials/cell = {grid.trials_per_cell}",
    )


def cmd_report(args, cfg) -> int:
    D = _resolve_dictionary(args, cfg)
    params = threshold.TheoremParams(s=args.s, gamma=args.gamma, n_a=args.na, n_b=args.nb)
    D.check_budgets(params.n_a, params.n_b)
    stats = D.stats
    doc = {
        "m": D.m,
        "N": D.N,
        "Na": D.Na,
        "Nb": D.Nb,
        "stats": stats.to_dict(),
        "params": dataclasses.asdict(params),
        "conditions": threshold.evaluate_conditions(stats, params).to_dict(),
        "search": threshold.max_sparsity_search(stats, s=params.s).to_dict(),
        "scaling": threshold.scaling_report(stats).to_dict(),
    }
    text = _json_text(doc)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ============================================================
# subcommand table and parser
# ============================================================


# subcommand -> (handler, help, {option: default})
_COMMANDS = {
    "build-dict": (cmd_build_dict, "construct and save a dictionary",
                   {"split": 0, "seed": 0, "out": None}),
    "analyze": (cmd_analyze, "print dictionary statistics",
                {"renormalize": False, "json": False}),
    "check": (cmd_check, "evaluate the closed-form conditions",
              {"renormalize": False, "json": False, "na": 0, "nb": 0, "s": 1.0,
               "gamma": 0.5, "maximize": False}),
    "smin": (cmd_smin, "sigma_min concentration experiment",
             {"renormalize": False, "json": False, "na": 1, "nb": 1, "trials": 1000,
              "seed": 0, "s": 1.0, "strategy": "first-n", "support_a": None, "out": ".",
              "threads": 1, "q": None}),
    "recover": (cmd_recover, "basis-pursuit success-rate sweep",
                {"renormalize": False, "json": False, "na_range": [0, 1, 2],
                 "nb_range": [0, 1, 2], "trials": 50, "seed": 0,
                 "strategies": ["first-n", "random-baseline"], "out": ".", "threads": 1}),
    "report": (cmd_report, "combined JSON report for a dictionary",
               {"renormalize": False, "na": 0, "nb": 0, "s": 1.0, "gamma": 0.5,
                "out": None}),
}


@functools.cache  # built once per process: it holds no per-call state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsethresh",
        description="sparsity thresholds, singular-value concentration and "
        "basis-pursuit experiments for partitioned dictionaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, defaults) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        if command == "build-dict":
            group = sp.add_mutually_exclusive_group()  # at most one builder
            group.add_argument("--mub", type=int, help="odd prime p for the p+1-basis dictionary")
            group.add_argument("--two-onb", type=int, help="m for the identity+Fourier dictionary")
            group.add_argument("--random", type=int, nargs=2, metavar=("M", "N"),
                               help="random unit columns of C^M, N of them")
        else:  # every other subcommand reads a dictionary
            sp.add_argument("--dict", help="path to a .dict.npy dictionary file (the matrix, "
                            "then Na, as two .npy arrays); it may be a pipe")
        for name in defaults:
            kind, option_help = _OPTIONS[name]
            flags = ["--" + name.replace("_", "-")]
            if command == "build-dict" and name == "out":
                flags.append("-o")
            if kind is bool:
                sp.add_argument(*flags, action="store_true", default=None, help=option_help)
            else:
                sp.add_argument(*flags, help=option_help,
                                type=None if isinstance(kind, list) else kind)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        handler, _, defaults = _COMMANDS[args.command]
        cfg = _load_config(args)
        _resolve(args, cfg, defaults)
        return handler(args, cfg)
    except (dictionary.DictionaryFormatError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
