"""Command-line driver.

Subcommands mirror the library layers: `moments` and `verblunsky` emit the
weight data, `lax` the spectral matrices, `orbit` the Painleve
orbit in (y, xi), `weyl` the lattice/composite report, `ode` the continuum
trajectory, `limit-check` its convergence study, and `verify-all` the
thirteen acceptance checks.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (including failed checks).
"""

import argparse
import json
import os
import sys

import mpmath as mp

from . import __version__, continuum, laxpair, opuc, painleve, qseries, verify, weyl
from .errors import ConfigError, NumericalError, QpviError
from .polys import json_complex


def _parse_real(text):
    try:
        return mp.mpf(text)
    except ValueError:
        raise ConfigError(f"cannot parse a real number from {text!r}") from None


def _parse_complex(text):
    parts = str(text).split(",")
    if len(parts) > 2:
        raise ConfigError(f"cannot parse complex number from {text!r}")
    return mp.mpc(*(_parse_real(p.strip()) for p in parts))


class _Parser(argparse.ArgumentParser):
    # argparse's refusals, such as text for an int flag, are configuration errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"configuration error: {message}\n")


def _add_weight(sp):
    """--a, --b, --q; the default is the reference weight `verify.REFERENCE`."""
    ref = verify.REFERENCE
    for name in ("a", "b"):
        sp.add_argument(f"--{name}", default=",".join(ref[name]),
                        help=f"weight parameter {name} as re,im; with a negative "
                             f"real part write --{name}=-0.4,0.3")
    sp.add_argument("--q", default=ref["q"], help="weight parameter q in (0, 1)")


def _add_prec(sp):
    sp.add_argument("--prec", type=int, help="working precision in bits "
                    "(default: env QPVI_PREC or 192)")


def _add_output(sp, csv=False):
    if csv:
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", help="output path (default: stdout)")


def _add_limit(sp):
    """The window and exponents of the limit system; the defaults are the
    reference study `continuum.REFERENCE_LIMIT`."""
    ref = continuum.REFERENCE_LIMIT
    for name in ("t0", "t1"):
        sp.add_argument(f"--{name}", default=ref[name])
    for name in ("u0", "v0"):
        sp.add_argument(f"--{name}", default=",".join(ref[name]))
    for name in ("K2", "Theta2"):
        sp.add_argument(f"--{name}", default=ref[name])
    for i, c in enumerate(ref["C"], 1):
        sp.add_argument(f"--C{i}", default=c)


def build_parser():
    ap = _Parser(prog="qpvi", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"qpvi {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="trigonometric moment table")
    _add_weight(sp)
    sp.add_argument("--K", type=int, default=46, help="moment range: c_-K..c_K")
    _add_prec(sp)
    _add_output(sp, csv=True)

    sp = sub.add_parser("verblunsky", help="Verblunsky coefficient table")
    _add_weight(sp)
    sp.add_argument("--N", type=int, default=20, help="table order")
    _add_prec(sp)
    _add_output(sp, csv=True)

    sp = sub.add_parser("lax", help="spectral matrices A_n")
    _add_weight(sp)
    sp.add_argument("--N", type=int, default=8, help="build A_1..A_N")
    _add_prec(sp)
    _add_output(sp)

    sp = sub.add_parser("orbit", help="Painleve orbit in (y, xi)")
    _add_weight(sp)
    _add_prec(sp)
    _add_output(sp)
    sp.add_argument("--n-start", type=int, default=3, help="starting order")
    sp.add_argument("--steps", type=int, default=5, help="number of steps")

    sp = sub.add_parser("weyl", help="lattice translation and composite report")
    _add_prec(sp)
    _add_output(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled points")

    # the trajectory is integrated in double precision and K1 drops out of
    # the limit system, so only the study takes --prec and --K1
    sp = sub.add_parser("ode", help="continuum trajectory in double precision")
    _add_output(sp, csv=True)
    _add_limit(sp)
    sp.add_argument("--npoints", type=int, default=201)

    sp = sub.add_parser("limit-check", help="discrete-to-continuum convergence study")
    _add_prec(sp)
    _add_output(sp)
    _add_limit(sp)
    sp.add_argument("--K1", default=continuum.REFERENCE_LIMIT["K1"])

    sp = sub.add_parser("verify-all", help="run the thirteen acceptance checks")
    _add_weight(sp)
    _add_prec(sp)
    _add_output(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    return ap


def _resolve(args):
    """Fold flags and environment into one config dict; check the precision."""
    prec = getattr(args, "prec", None)
    if prec is None:
        env = os.environ.get("QPVI_PREC", "192")
        try:
            prec = int(env)
        except ValueError:
            raise ConfigError(f"QPVI_PREC must be a number of bits, got {env!r}") from None
    if prec < 53:
        raise ConfigError("precision below 53 bits is not supported")
    cfg = {"prec": prec}
    for name in ("a", "b", "q", "N", "K", "seed"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    return cfg


def _weight_params(cfg):
    return qseries.QWeightParams(a=_parse_complex(cfg["a"]),
                                 b=_parse_complex(cfg["b"]),
                                 q=_parse_real(cfg["q"]))


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(cfg, data):
    cfg_json = {k: v for k, v in cfg.items() if v is not None}
    return json.dumps({"version": __version__, "config": cfg_json, "data": data},
                      sort_keys=True, indent=2) + "\n"


def _emit_table(args, cfg, data, csv_lines):
    """The JSON envelope of `data`, or with --format csv a header and `csv_lines`."""
    if args.format == "json":
        _emit(args, _envelope(cfg, data))
    else:
        items = ",".join(f"{k}={v}" for k, v in sorted(cfg.items()) if v is not None)
        _emit(args, f"# qpvi {__version__} {items}\n"
              + "".join(line + "\n" for line in csv_lines))


def cmd_moments(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        table = qseries.moments(p, K=cfg["K"])
        _emit_table(args, cfg, table.to_json_dict(), table.to_csv_lines())
    return 0


def cmd_verblunsky(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        N = cfg["N"]
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=N + 1), N=N)
        _emit_table(args, cfg, vt.to_json_dict(), vt.to_csv_lines())
    return 0


def cmd_lax(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        nmax = cfg["N"]
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=nmax + 2), N=nmax + 1)
        fits = {str(n): laxpair.fit_spectral_matrix(p, vt, n).to_json_dict()
                for n in range(1, nmax + 1)}
        _emit(args, _envelope(cfg, fits))
    return 0


def cmd_orbit(args):
    cfg = _resolve(args)
    cfg["n_start"], cfg["steps"] = args.n_start, args.steps
    if args.n_start < 1 or args.steps < 0:
        raise ConfigError("need --n-start >= 1 and --steps >= 0")
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        n0 = args.n_start
        sp = painleve.params_from_weight(p, n0)
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=n0 + 2), N=n0 + 1)
        fit = laxpair.fit_spectral_matrix(p, vt, n0)
        coords = painleve.extract_coords(fit.matrix, sp)
        lines = []
        for k in range(args.steps + 1):
            fact = max(painleve.factorization_residuals(coords, sp))
            rec = {"n": n0 + k,
                   "y": json_complex(coords.y),
                   "xi": json_complex(coords.xi),
                   "params": sp.to_json_dict(),
                   "residuals": {"constraint": float(sp.constraint_residual()),
                                 "factorization": float(fact)}}
            lines.append(json.dumps(rec, sort_keys=True))
            if k < args.steps:
                coords, sp = painleve.phi_step(coords, sp)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_weyl(args):
    cfg = _resolve(args)
    checks = weyl.check_translation()
    worst = max(verify._composite_sample(cfg["prec"], args.seed, i)
                for i in range(20))
    data = {"matrix": [list(row) for row in weyl.phi_pic()],
            "lattice_checks": checks,
            "composite_samples": 20,
            "composite_max_rel_error": worst}
    _emit(args, _envelope(cfg, data))
    return 0 if checks["all"] and worst < verify.COMPOSITE_TOL else 3


def _limit_params(args, cfg):
    """LimitParams of the flags, recorded in cfg; K1 = 0 where there is no
    --K1, as K1 drops out of the limit system."""
    K1 = getattr(args, "K1", None)
    cfg.update({"K1": K1, "K2": args.K2, "Theta2": args.Theta2,
                "C": [args.C1, args.C2, args.C3, args.C4],
                "t0": args.t0, "t1": args.t1, "u0": args.u0, "v0": args.v0})
    return continuum.LimitParams(
        K1=_parse_complex(K1 or "0"), K2=_parse_complex(args.K2),
        Th2=_parse_complex(args.Theta2),
        C=tuple(_parse_complex(getattr(args, f"C{i}")) for i in range(1, 5)))


def cmd_limit_check(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        lp = _limit_params(args, cfg)
        window = {"t0": _parse_real(args.t0), "t1": _parse_real(args.t1),
                  "u0": _parse_complex(args.u0), "v0": _parse_complex(args.v0)}
        rep = continuum.limit_check(lp=lp, window=window, prec=cfg["prec"])
        _emit(args, _envelope(cfg, rep.to_json_dict()))
    return 0 if rep.passed else 3


def cmd_ode(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        lp = _limit_params(args, cfg)
        traj = continuum.integrate(lp, _parse_real(args.t0), _parse_real(args.t1),
                                   _parse_complex(args.u0), _parse_complex(args.v0),
                                   npoints=args.npoints)
        data = {"t": [float(t) for t in traj.t],
                "u": [json_complex(u) for u in traj.u],
                "v": [json_complex(v) for v in traj.v]}
        _emit_table(args, cfg, data, traj.to_csv_lines())
    return 0


def cmd_verify_all(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
    results = verify.run_all(params=p, prec=cfg["prec"], seed=cfg["seed"])
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    if args.out:
        _emit(args, _envelope(cfg, {"results": [r.to_json_dict() for r in results],
                                    "all_passed": ok}))
    print(f"{'all 13 checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 3


COMMANDS = {
    "moments": cmd_moments, "verblunsky": cmd_verblunsky, "lax": cmd_lax,
    "orbit": cmd_orbit, "weyl": cmd_weyl, "ode": cmd_ode,
    "limit-check": cmd_limit_check, "verify-all": cmd_verify_all,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except QpviError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
