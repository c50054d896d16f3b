"""Command-line driver.

Subcommands mirror the library layers: `moments` and `verblunsky` emit the
weight data, `lax` the fitted spectral matrices, `orbit` the Painleve
orbit in (y, xi), `weyl` the lattice/composite report, `ode` the continuum
trajectory or its convergence study, and `verify-all` the thirteen
acceptance checks.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (including failed checks).
"""

import argparse
import json
import os
import sys

import mpmath as mp

from . import __version__, continuum, laxpair, opuc, painleve, qseries, verify, weyl
from .errors import ConfigError, NumericalError, QpviError

PRESETS = {
    "reference": {"a": "0.3,0.2", "b": "0.5", "q": "0.5", "N": 20, "prec": 192},
}


def _parse_complex(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        return mp.mpc(mp.mpf(parts[0]))
    if len(parts) == 2:
        return mp.mpc(mp.mpf(parts[0]), mp.mpf(parts[1]))
    raise ConfigError(f"cannot parse complex number from {text!r}")


def _add_common(sp, with_weight=True):
    if with_weight:
        sp.add_argument("--a", help="weight parameter a as re,im")
        sp.add_argument("--b", help="weight parameter b as re,im")
        sp.add_argument("--q", help="weight parameter q in (0, 1)")
        sp.add_argument("--N", type=int, help="table order")
        sp.add_argument("--K", type=int, help="moment range")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter preset")
    sp.add_argument("--prec", type=int, help="working precision in bits "
                    "(default: env QPVI_PREC or 192)")
    sp.add_argument("--tol", type=float, help="override the default tolerance")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", help="output path (default: stdout)")


def build_parser():
    ap = argparse.ArgumentParser(prog="qpvi", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"qpvi {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="trigonometric moment table")
    _add_common(sp)

    sp = sub.add_parser("verblunsky", help="Verblunsky coefficient table")
    _add_common(sp)

    sp = sub.add_parser("lax", help="fitted spectral matrices A_n")
    _add_common(sp)

    sp = sub.add_parser("orbit", help="Painleve orbit in (y, xi)")
    _add_common(sp)
    sp.add_argument("--n-start", type=int, default=3, help="starting order")
    sp.add_argument("--steps", type=int, default=5, help="number of steps")

    sp = sub.add_parser("weyl", help="lattice translation and composite report")
    _add_common(sp, with_weight=False)

    sp = sub.add_parser("ode", help="continuum trajectory or convergence study")
    _add_common(sp, with_weight=False)
    sp.add_argument("--limit-check", action="store_true",
                    help="run the discrete-to-continuum convergence study")
    sp.add_argument("--t0", default="0.8")
    sp.add_argument("--t1", default="0.4")
    sp.add_argument("--u0", default="0.3,0.1")
    sp.add_argument("--v0", default="1.2,-0.2")
    sp.add_argument("--npoints", type=int, default=201)
    sp.add_argument("--K1", default="0.4")
    sp.add_argument("--K2", default="-0.3")
    sp.add_argument("--Theta2", default="0.25")
    for i, d in ((1, "0.15"), (2, "-0.2"), (3, "0.35"), (4, "0.2")):
        sp.add_argument(f"--C{i}", default=d)

    sp = sub.add_parser("verify-all", help="run the thirteen acceptance checks")
    _add_common(sp)
    return ap


def _resolve(args):
    """Fold preset, flags, and environment into one config dict."""
    preset = PRESETS.get(getattr(args, "preset", None) or "reference")
    prec = args.prec or int(os.environ.get("QPVI_PREC", preset["prec"]))
    if prec < 53:
        raise ConfigError("precision below 53 bits is not supported")
    cfg = {"prec": prec, "seed": args.seed}
    if hasattr(args, "a"):
        cfg["a"] = args.a or preset["a"]
        cfg["b"] = args.b or preset["b"]
        cfg["q"] = args.q or preset["q"]
        cfg["N"] = args.N if args.N is not None else preset["N"]
        cfg["K"] = args.K
    return cfg


def _weight_params(cfg):
    return qseries.QWeightParams(a=_parse_complex(cfg["a"]),
                                 b=_parse_complex(cfg["b"]),
                                 q=mp.mpf(cfg["q"]))


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_json(args, what=None):
    """Refuse --format csv for outputs that have no CSV form, before any work."""
    if args.format != "json":
        raise ConfigError(f"{what or args.command} writes JSON only; "
                          f"--format {args.format} is not supported")


def _envelope(cfg, data):
    cfg_json = {k: v for k, v in cfg.items() if v is not None}
    return json.dumps({"version": __version__, "config": cfg_json, "data": data},
                      sort_keys=True, indent=2) + "\n"


def _csv_header(cfg):
    items = ",".join(f"{k}={v}" for k, v in sorted(cfg.items()) if v is not None)
    return f"# qpvi {__version__} {items}\n"


def cmd_moments(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        K = cfg["K"] if cfg["K"] is not None else 2 * cfg["N"] + 6
        table = qseries.moments(p, K=K)
        if args.format == "json":
            _emit(args, _envelope(cfg, table.to_json_dict()))
        else:
            lines = [_csv_header(cfg), "k,re_c,im_c\n"]
            for k in range(-table.K, table.K + 1):
                ck = table.cmom(k)
                lines.append(f"{k},{float(ck.real)!r},{float(ck.imag)!r}\n")
            _emit(args, "".join(lines))
    return 0


def cmd_verblunsky(args):
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        N = cfg["N"]
        K = cfg["K"] if cfg["K"] is not None else N + 2
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=K), N=N)
        if args.format == "json":
            _emit(args, _envelope(cfg, vt.to_json_dict()))
        else:
            body = "".join(line + "\n" for line in vt.to_csv_lines())
            _emit(args, _csv_header(cfg) + body)
    return 0


def cmd_lax(args):
    _require_json(args)
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        nmax = cfg["N"] if args.N is not None else 8
        K = cfg["K"] if cfg["K"] is not None else nmax + 4
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=K), N=nmax + 1)
        tol = mp.mpf(args.tol) if args.tol else None
        fits = [laxpair.fit_spectral_matrix(p, vt, n, tol=tol)
                for n in range(1, nmax + 1)]
        _emit(args, _envelope(cfg, laxpair.fits_to_json_dict(fits)))
    return 0


def cmd_orbit(args):
    _require_json(args)
    cfg = _resolve(args)
    cfg["n_start"], cfg["steps"] = args.n_start, args.steps
    if args.n_start < 1 or args.steps < 0:
        raise ConfigError("need --n-start >= 1 and --steps >= 0")
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
        n0 = args.n_start
        sp = painleve.params_from_weight(p, n0)
        K = cfg["K"] if cfg["K"] is not None else n0 + 4
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=K), N=n0 + 1)
        fit = laxpair.fit_spectral_matrix(p, vt, n0)
        coords = painleve.extract_coords(fit.matrix, sp)
        lines = []
        for k in range(args.steps + 1):
            fact = max(painleve.factorization_residuals(coords, sp))
            rec = {"n": n0 + k,
                   "y": [float(coords.y.real), float(coords.y.imag)],
                   "xi": [float(coords.xi.real), float(coords.xi.imag)],
                   "params": sp.to_json_dict(),
                   "residuals": {"constraint": float(sp.constraint_residual()),
                                 "factorization": float(fact)}}
            lines.append(json.dumps(rec, sort_keys=True))
            if k < args.steps:
                coords, sp = painleve.phi_step(coords, sp)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_weyl(args):
    _require_json(args)
    cfg = {"prec": args.prec or int(os.environ.get("QPVI_PREC", 192)),
           "seed": args.seed}
    checks = weyl.check_translation()
    worst = max(verify._composite_sample(cfg["prec"], args.seed, i)
                for i in range(20))
    data = {"matrix": [list(row) for row in weyl.phi_pic()],
            "lattice_checks": checks,
            "composite_samples": 20,
            "composite_max_rel_error": worst}
    _emit(args, _envelope(cfg, data))
    return 0 if checks["all"] and worst < 1e-10 else 3


def cmd_ode(args):
    if args.limit_check:
        _require_json(args, "ode --limit-check")
    prec = args.prec or int(os.environ.get("QPVI_PREC", 192))
    cfg = {"prec": prec, "K1": args.K1, "K2": args.K2, "Theta2": args.Theta2,
           "C": [args.C1, args.C2, args.C3, args.C4],
           "t0": args.t0, "t1": args.t1, "u0": args.u0, "v0": args.v0}
    with mp.workprec(prec):
        lp = continuum.LimitParams.from_theta2(
            K1=_parse_complex(args.K1), K2=_parse_complex(args.K2),
            Th2=_parse_complex(args.Theta2),
            C=tuple(_parse_complex(getattr(args, f"C{i}")) for i in range(1, 5)))
        if args.limit_check:
            window = {"t0": mp.mpf(args.t0), "t1": mp.mpf(args.t1),
                      "u0": _parse_complex(args.u0), "v0": _parse_complex(args.v0)}
            rep = continuum.limit_check(lp=lp, window=window, prec=prec)
            _emit(args, _envelope(cfg, rep.to_json_dict()))
            return 0 if rep.decreasing and rep.fitted_order >= 0.8 else 3
        traj = continuum.integrate(lp, mp.mpf(args.t0), mp.mpf(args.t1),
                                   _parse_complex(args.u0), _parse_complex(args.v0),
                                   npoints=args.npoints)
        if args.format == "json":
            data = {"t": [float(t) for t in traj.t],
                    "u": [[u.real, u.imag] for u in traj.u],
                    "v": [[v.real, v.imag] for v in traj.v]}
            _emit(args, _envelope(cfg, data))
        else:
            body = "".join(line + "\n" for line in traj.to_csv_lines())
            _emit(args, _csv_header(cfg) + body)
    return 0


def cmd_verify_all(args):
    _require_json(args)
    cfg = _resolve(args)
    with mp.workprec(cfg["prec"]):
        p = _weight_params(cfg)
    results = verify.run_all(params=p, prec=cfg["prec"], seed=cfg["seed"])
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    if args.out:
        report = _envelope(cfg, {"results": [r.to_json_dict() for r in results],
                                 "all_passed": ok})
        with open(args.out, "w") as fh:
            fh.write(report)
    print(f"{'all 13 checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 3


COMMANDS = {
    "moments": cmd_moments, "verblunsky": cmd_verblunsky, "lax": cmd_lax,
    "orbit": cmd_orbit, "weyl": cmd_weyl, "ode": cmd_ode,
    "verify-all": cmd_verify_all,
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
