"""One benchmark attempt, in a fresh process.

Sets up the group and its Manin-symbol space, runs one workload through the
library's public API, checks the basis-independent answer against
reference.json and prints one JSON record as the last line of stdout.  With
--trace 1 it also wraps the layer functions (see install_trace) and adds the
per-layer metrics to the record.  With --setup-only it stops after set-up.

Run from the repository root with src/ on PYTHONPATH, e.g.

    PYTHONPATH=src python3 perfbench/attempt.py --workload plus-gamma0-11

The printed "answer" is what reference.json stores for a workload.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before the library import

import argparse
import json
import os
import platform
import resource

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (family, parameter, path, L).  The path says how far the pipeline
# runs: "plus" stops at the working (plus) space, "decompose" splits it into
# Hecke pieces, "eigensystem" adds a_n for n < L on piece 0.
WORKLOADS = {
    "plus-ns_plus-53": ("ns_plus", 53, "plus", None),
    "decompose-ns_plus-37": ("ns_plus", 37, "decompose", None),
    "eigensystem-ns_plus-13-L500": ("ns_plus", 13, "eigensystem", 500),
}
SMOKE_WORKLOADS = {
    "plus-gamma0-11": ("gamma0", 11, "plus", None),
    "decompose-gamma0-11": ("gamma0", 11, "decompose", None),
    "eigensystem-gamma0-11-L100": ("gamma0", 11, "eigensystem", 100),
}


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def install_trace(tracer, sizes):
    """Wrap the layer-boundary functions at the names their callers look up.
    Per-element helpers (groups.mat_mul, coset_index_mod, linalg.mat_vec)
    run millions of times and stay unwrapped."""
    from congsym import hecke, linalg, spectra

    def on_charpoly(args, result):
        sizes["charpoly_max_dim"] = max(sizes["charpoly_max_dim"], len(args[0]))

    def on_factor(args, result):
        for c in args[0].coeffs:
            bits = max(int(c.numerator).bit_length(),
                       int(c.denominator).bit_length())
            sizes["coeff_bits"] = max(sizes["coeff_bits"], bits)

    # |H_n| is read from the set hecke_tn_fast builds anyway, so counting
    # the Heilbronn terms costs a len() and no extra sweep
    build_heilbronn = hecke.heilbronn_merel_set

    def counted_heilbronn(n):
        H = build_heilbronn(n)
        sizes["heilbronn_size"] = len(H)
        return H

    def on_hecke(args, result):
        sizes["heilbronn_terms"] += sizes.pop("heilbronn_size", 0) * args[0].dim

    tracer.wrap(linalg, "restrict_to_invariant_subspace", "linalg.restrict")
    tracer.wrap(linalg, "kernel", "linalg.kernel")
    tracer.wrap(linalg, "charpoly", "linalg.charpoly", on_charpoly)
    tracer.wrap(linalg, "mat_mul", "linalg.mat_mul")
    tracer.wrap(linalg, "mat_poly_eval", "linalg.mat_poly_eval")
    tracer.wrap(spectra, "cuspidal_subspace", "spaces.cuspidal_subspace")
    tracer.wrap(spectra, "star_involution", "spaces.star_involution")
    tracer.wrap(spectra, "plus_subspace", "spaces.plus_subspace")
    tracer.wrap(spectra, "factor_rational_poly", "polys.factor", on_factor)
    tracer.wrap(spectra, "is_irreducible_poly", "polys.is_irreducible")
    tracer.wrap(spectra, "hecke_tn_fast", "hecke.hecke_tn_fast", on_hecke)
    tracer.wrap(spectra, "diamond_operator", "hecke.diamond_operator")
    hecke.heilbronn_merel_set = counted_heilbronn


def layer_metrics(tracer, sizes, index, dim_full, dim_plus, n_pieces,
                  post_setup_s):
    t = tracer
    top = ("spectra.context", "spectra.decompose", "spectra.eigen_system")
    return {
        "families.build_family_s": t.self_time("families.build_family"),
        "groups.coset_table_s": t.self_time("groups.coset_table"),
        "groups.index": index,
        "spaces.build_space_s": t.self_time("spaces.build_space"),
        "spaces.cuspidal_subspace_s": t.self_time("spaces.cuspidal_subspace"),
        "spaces.star_involution_s": t.self_time("spaces.star_involution"),
        "spaces.plus_subspace_s": t.self_time("spaces.plus_subspace"),
        "spaces.dim_full": dim_full,
        "spaces.dim_plus": dim_plus,
        "linalg.restrict_s": t.self_time("linalg.restrict"),
        "linalg.restrict_calls": t.calls("linalg.restrict"),
        "linalg.kernel_s": t.self_time("linalg.kernel"),
        "linalg.kernel_calls": t.calls("linalg.kernel"),
        "linalg.charpoly_s": t.self_time("linalg.charpoly"),
        "linalg.charpoly_calls": t.calls("linalg.charpoly"),
        "linalg.charpoly_max_dim": sizes["charpoly_max_dim"],
        "linalg.mat_mul_s": t.self_time("linalg.mat_mul"),
        "linalg.mat_mul_calls": t.calls("linalg.mat_mul"),
        "linalg.mat_poly_eval_s": t.self_time("linalg.mat_poly_eval"),
        "polys.factor_s": t.self_time("polys.factor"),
        "polys.factor_calls": t.calls("polys.factor"),
        "polys.is_irreducible_s": t.self_time("polys.is_irreducible"),
        "polys.charpoly_max_coeff_bits": sizes["coeff_bits"],
        "hecke.hecke_tn_fast_s": t.self_time("hecke.hecke_tn_fast"),
        "hecke.hecke_tn_fast_calls": t.calls("hecke.hecke_tn_fast"),
        "hecke.heilbronn_terms": sizes["heilbronn_terms"],
        "hecke.diamond_operator_s": t.self_time("hecke.diamond_operator"),
        "spectra.context_s": t.total("spectra.context"),
        "spectra.decompose_s": t.total("spectra.decompose"),
        "spectra.decompose_self_s": t.self_time("spectra.decompose"),
        "spectra.eigen_system_s": t.total("spectra.eigen_system"),
        "spectra.eigen_system_self_s": t.self_time("spectra.eigen_system"),
        "spectra.pieces": n_pieces,
        "trace.coverage": sum(t.total(n) for n in top) / post_setup_s,
        "trace.spans": sum(st[0] for st in t.stats.values()),
    }


def first_mismatch(answer, reference):
    if reference is None:
        return "no reference answer"
    for key in sorted(set(answer) | set(reference)):
        if answer.get(key) != reference.get(key):
            return key
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + list(SMOKE_WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    family, param, path, L = {**WORKLOADS, **SMOKE_WORKLOADS}[args.workload]

    # set-up imports only what building the space needs (sympy comes in
    # through spaces -> polys); spectra and hecke are imported afterwards
    from congsym import families, groups, spaces
    tracer = None
    sizes = {"charpoly_max_dim": 0, "coeff_bits": 0, "heilbronn_terms": 0}
    call = _untraced
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        install_trace(tracer, sizes)
        call = tracer.span

    G = call("families.build_family", families.build_family, family, param)
    Gamma = call("groups.coset_table", groups.coset_table, G)
    S = call("spaces.build_space", spaces.build_space, Gamma, 2)
    t_setup = time.perf_counter()
    record = {"setup_s": t_setup - T0}

    if not args.setup_only:
        from congsym import spectra
        ctx = call("spectra.context", spectra.SpectralContext, S)
        answer = {"index": Gamma.index, "kind": ctx.kind, "dim_full": S.dim,
                  "dim_cuspidal": len(ctx.cuspidal), "dim_plus": ctx.dim}
        pieces = []
        if path in ("decompose", "eigensystem"):
            pieces = call("spectra.decompose", spectra.decompose, ctx,
                          seed=args.seed)
            answer["pieces"] = [[p.dimension, p.label.to_str()]
                                for p in pieces]
        if path == "eigensystem":
            es = call("spectra.eigen_system", spectra.eigen_system,
                      pieces[0], L=L, seed=args.seed)
            answer["modulus"] = es.modulus.to_str()
            answer["a"] = [es.a_str(n) for n in range(1, L)]
        t_answer = time.perf_counter()
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f).get(args.workload)
        mismatch = first_mismatch(answer, reference)
        record.update(ok=mismatch is None, mismatch=mismatch, answer=answer)

    # the stamps below close the timed part of the attempt
    record["t_done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0   # KiB on Linux
    if tracer is not None and not args.setup_only:
        record["layers"] = layer_metrics(
            tracer, sizes, Gamma.index, S.dim, ctx.dim, len(pieces),
            t_answer - t_setup)
    import sympy
    from congsym import backend
    record["env"] = {"rat_impl": backend.RAT_IMPL,
                     "python": platform.python_version(),
                     "sympy": sympy.__version__,
                     "nproc": len(os.sched_getaffinity(0))}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
