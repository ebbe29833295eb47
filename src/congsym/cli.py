"""Command-line interface.

Group argument grammar (positional tokens after the subcommand):

    FAMILY PARAM            a named family: gamma0 | gamma1 | gamma_full |
                            gamma | ns | ns_plus | s4, with its level
    N GEN [GEN ...]         a level and explicit generators, each GEN a
                            row-major 4-tuple like [1,3,12,3] or 1,3,12,3

Exit codes: 0 success, 1 bench found the two Hecke paths unequal (PATH
MISMATCH on stderr), 2 input parse error, 3 resource cap exceeded,
4 operator at a prime dividing the level requested without the explicit
double-coset data that makes it effectively computable.
"""

import argparse
import hashlib
import json
import sys
import time
from math import gcd, lcm

from .backend import PSI_12, factor_int, is_prime, rat, rat_str
from .groups import GroupTooLarge, close_group, coset_table
from .families import FAMILY_BUILDERS, build_family
from . import linalg as la
from . import spaces as sp
from . import hecke as hk
from . import spectra as spec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_BAD_PRIME = 4

BAD_PRIME_MESSAGE = (
    "T_%d at a prime dividing the level is only effectively computable "
    "from explicit double-coset data; supply it with --alpha a,b,c,d "
    "(one flag per coset representative of determinant a power of %d)")


class CliInputError(Exception):
    pass


# --------------------------------------------------------------- input

def _parse_int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise CliInputError("expected an integer %s, got %r" % (what, tok))


def _parse_tuple4(tok, what, rational=False):
    clean = tok.strip().strip("[]()")
    parts = [p for p in clean.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 4:
        raise CliInputError("%s must have 4 entries, got %r" % (what, tok))
    out = []
    for p in parts:
        try:
            out.append(rat(p.strip()) if rational else int(p.strip()))
        except (ValueError, ZeroDivisionError):
            raise CliInputError("bad entry %r in %s" % (p, what))
    return tuple(out)


def parse_group(tokens):
    """Build the GL2(Z/N) subgroup described by the positional tokens."""
    if not tokens:
        raise CliInputError("missing group description")
    tag = tokens[0]
    if tag in FAMILY_BUILDERS:
        if len(tokens) != 2:
            raise CliInputError(
                "family %r takes exactly one parameter" % tag)
        try:
            return build_family(tag, _parse_int(tokens[1], "family parameter"))
        except ValueError as exc:
            raise CliInputError(str(exc))
    N = _parse_int(tag, "level (or a family tag: %s)"
                   % "|".join(sorted(FAMILY_BUILDERS)))
    if N < 1:
        raise CliInputError("level must be positive")
    if len(tokens) < 2 and N > 1:
        raise CliInputError("explicit groups need at least one generator")
    gens = []
    for tok in tokens[1:]:
        g = _parse_tuple4(tok, "generator")
        det = (g[0] * g[3] - g[1] * g[2]) % N if N > 1 else 1
        if gcd(det, N) != 1:
            raise CliInputError("generator %r is not invertible mod %d"
                                % (tok, N))
        gens.append(g)
    return close_group(N, gens)


def _alpha_matrix(tok):
    """An --alpha value: rational 4-tuple, cleared to a primitive integer
    matrix of positive determinant."""
    fr = _parse_tuple4(tok, "--alpha", rational=True)
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    a, b, c, d = ints
    det = a * d - b * c
    if det == 0:
        raise CliInputError("--alpha matrix %r is singular" % (tok,))
    if det < 0:
        raise CliInputError("--alpha matrix %r has negative determinant"
                            % (tok,))
    return (a, b, c, d)


def _alpha_prime(alpha):
    """The unique prime whose power is det(alpha)."""
    det = alpha[0] * alpha[3] - alpha[1] * alpha[2]
    fac = factor_int(det)
    if len(fac) != 1:
        raise CliInputError(
            "--alpha determinant %d is not a prime power" % det)
    return next(iter(fac))


# --------------------------------------------------------------- output

def _matrix_strs(m):
    """The entries of the square matrix m = (den, rows) of linalg as
    strings, row by row."""
    den, rows = m
    return [[rat_str(rat(row.get(j, 0), den)) for j in range(len(rows))]
            for row in rows]


def _matrix_hash(m):
    text = ";".join(",".join(row) for row in _matrix_strs(m))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _print_matrix(m):
    for row in _matrix_strs(m):
        print(" ".join(row) if row else "")
    if not m[1]:
        print("[]")


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


# --------------------------------------------------------------- commands

def _swept_primes(args):
    """The primes at which a command computes T_p: -p for hecke, the -p
    list (default 2) for bench, None for the other commands."""
    if args.command == "hecke":
        return [args.p]
    if args.command == "bench":
        return args.p or [2]
    return None


def _context(args):
    G = parse_group(args.group)
    swept = _swept_primes(args)
    for a in getattr(args, "alpha", None) or []:
        p = _alpha_prime(a)
        tok = ",".join(map(str, a))
        if G.N % p:
            raise CliInputError("--alpha %s is for p = %d, which does not "
                                "divide the level %d" % (tok, p, G.N))
        if swept is not None and p not in swept:
            raise CliInputError("--alpha %s is for p = %d, which is not a -p "
                                "prime (%s)"
                                % (tok, p, ", ".join(map(str, swept))))
    Gamma = coset_table(G)
    S = sp.build_space(Gamma, args.weight)
    return G, Gamma, S


def cmd_dims(args):
    G, Gamma, S = _context(args)
    ctx = spec.SpectralContext(S)
    plus = ctx.dim if ctx.kind == "plus" else None
    data = {
        "level": G.N,
        "index": Gamma.index,
        "cusps": sp.cusp_count(Gamma),
        "dim_full": S.dim,
        "dim_cuspidal": len(ctx.cuspidal),
        "dim_plus": plus,
    }
    if args.json:
        _emit_json(data)
    else:
        for key in ("level", "index", "cusps", "dim_full",
                    "dim_cuspidal", "dim_plus"):
            v = data[key]
            print("%s: %s" % (key, "-" if v is None else v))
    return EXIT_OK


def _alpha_operator(S, alphas, p):
    """The sum of the double-coset operators on S of the --alpha matrices
    for p, one coset_operator over all their right cosets; None when there
    are none."""
    mine = [a for a in alphas if _alpha_prime(a) == p]
    if not mine:
        return None
    return hk.coset_operator(S, S, [b for a in mine
                                    for b in hk.double_coset_reps(S.table, a)])


def _hecke_matrix(G, S, p, path, alphas):
    N = G.N
    if N > 1 and N % p == 0:
        full = _alpha_operator(S, alphas, p)
        if full is None:
            raise _BadPrime(p)
        return full
    return hk.hecke_tp(S, p, path=path)


class _BadPrime(Exception):
    def __init__(self, p):
        self.p = p


def cmd_hecke(args):
    G, Gamma, S = _context(args)
    ctx = spec.SpectralContext(S)
    full = _hecke_matrix(G, S, args.p, args.path, args.alpha or [])
    mat = la.restrict_to_invariant_subspace(full, ctx.basis)
    if args.json:
        _emit_json({"space": ctx.kind, "p": args.p,
                    "matrix": _matrix_strs(mat)})
    else:
        print("space: %s  p: %d  dim: %d" % (ctx.kind, args.p, ctx.dim))
        _print_matrix(mat)
    return EXIT_OK


def cmd_decompose(args):
    G, Gamma, S = _context(args)
    ctx = spec.SpectralContext(S)
    pieces = spec.decompose(ctx, seed=args.seed)
    rows = [{"dim": pc.dimension,
             "label": pc.label.to_str() if pc.label is not None else "?",
             "isotypic": pc.isotypic}
            for pc in pieces]
    if args.json:
        _emit_json({"space": ctx.kind, "pieces": rows})
    else:
        print("space: %s  dim: %d  pieces: %d"
              % (ctx.kind, ctx.dim, len(rows)))
        for i, r in enumerate(rows):
            extra = "  (isotypic)" if r["isotypic"] else ""
            print("%d: dim %d  label %s%s" % (i, r["dim"], r["label"], extra))
    return EXIT_OK


def cmd_eigensystem(args):
    G, Gamma, S = _context(args)
    ctx = spec.SpectralContext(S)
    pieces = spec.decompose(ctx, seed=args.seed)
    if not pieces:
        raise CliInputError("the working space is zero; no eigensystems")
    if not (0 <= args.piece < len(pieces)):
        raise CliInputError("piece index %d out of range (0..%d)"
                            % (args.piece, len(pieces) - 1))
    bad_ops = {p: la.restrict_to_invariant_subspace(
        _alpha_operator(S, args.alpha, p), ctx.basis)
        for p in {_alpha_prime(a) for a in args.alpha or []}}
    try:
        es = spec.eigen_system(pieces[args.piece], L=args.L, seed=args.seed,
                               bad_ops=bad_ops or None)
    except ValueError as exc:   # an --alpha operator not scalar on the piece
        raise CliInputError(str(exc))
    if args.json:
        _emit_json({"piece": args.piece,
                    "field": es.modulus.to_str(),
                    "an": {str(n): es.a_str(n) for n in range(1, args.L)}})
    else:
        print("piece %d  dim %d" % (args.piece,
                                    pieces[args.piece].dimension))
        print("field: %s" % es.modulus.to_str())
        for n in range(1, args.L):
            print("%d: %s" % (n, es.a_str(n)))
    return EXIT_OK


def cmd_bench(args):
    G, Gamma, S = _context(args)
    primes = _swept_primes(args)
    rows = []
    for p in primes:
        timings = {}
        mats = {}
        for path in ("naive", "merel"):
            t0 = time.perf_counter()
            mats[path] = _hecke_matrix(G, S, p, path, args.alpha or [])
            timings[path] = time.perf_counter() - t0
        if mats["naive"] != mats["merel"]:
            print("p=%d: PATH MISMATCH" % p, file=sys.stderr)
            return EXIT_MISMATCH
        rows.append({"p": p, "naive_s": round(timings["naive"], 6),
                     "merel_s": round(timings["merel"], 6),
                     "equal": True, "hash": _matrix_hash(mats["merel"])})
    if args.json:
        _emit_json({"bench": rows})
    else:
        for r in rows:
            print("p=%d  naive %.6fs  merel %.6fs  equal  hash=%s"
                  % (r["p"], r["naive_s"], r["merel_s"], r["hash"]))
    return EXIT_OK


# --------------------------------------------------------------- driver

def _add_common(sub):
    sub.add_argument("group", nargs="+",
                     help="FAMILY PARAM, or N followed by generator 4-tuples")
    sub.add_argument("--weight", "-k", type=int, default=2,
                     help="weight k >= 2 (default 2)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for all randomized choices (default 0)")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="congsym",
        description="Modular symbols for congruence subgroups cut out by "
                    "subgroups of GL2(Z/N).")
    subs = ap.add_subparsers(dest="command", required=True)

    d = subs.add_parser("dims", help="space dimensions and cusp count")
    _add_common(d)
    d.set_defaults(func=cmd_dims)

    h = subs.add_parser("hecke", help="Hecke matrix on the working space")
    _add_common(h)
    h.add_argument("-p", type=int, required=True, help="prime index")
    h.add_argument("--path", choices=("naive", "merel"), default="merel")
    h.add_argument("--alpha", action="append", metavar="a,b,c,d",
                   help="double-coset representative for a prime dividing "
                        "the level (rational 4-tuple; repeatable)")
    h.set_defaults(func=cmd_hecke)

    dc = subs.add_parser("decompose", help="invariant-piece decomposition")
    _add_common(dc)
    dc.set_defaults(func=cmd_decompose)

    e = subs.add_parser("eigensystem", help="eigenvalues a_n of one piece")
    _add_common(e)
    e.add_argument("--piece", type=int, default=0,
                   help="piece index from `decompose` order (default 0)")
    e.add_argument("-L", type=int, default=100,
                   help="compute a_n for n < L (default 100)")
    e.add_argument("--alpha", action="append", metavar="a,b,c,d",
                   help="double-coset data for a prime dividing the level")
    e.set_defaults(func=cmd_eigensystem)

    b = subs.add_parser("bench", help="compare operator paths with timings")
    _add_common(b)
    b.add_argument("-p", type=int, action="append",
                   help="prime to benchmark (repeatable; default 2)")
    b.add_argument("--alpha", action="append", metavar="a,b,c,d",
                   help="double-coset data for a prime dividing the level")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.weight < 2:
        print("error: weight must be at least 2", file=sys.stderr)
        return EXIT_PARSE
    try:
        alphas = getattr(args, "alpha", None)
        if alphas is not None:
            args.alpha = [_alpha_matrix(tok) for tok in alphas]
        # hecke takes one -p, bench a list of them or none
        primes = getattr(args, "p", None)
        for p in [primes] if isinstance(primes, int) else primes or []:
            if p >= PSI_12:
                raise CliInputError("-p %d is past the proven prime range" % p)
            if not is_prime(p):
                raise CliInputError("-p must be a prime, got %d" % p)
        return args.func(args)
    except CliInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except GroupTooLarge as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except _BadPrime as exc:
        print("error: " + BAD_PRIME_MESSAGE % (exc.p, exc.p),
              file=sys.stderr)
        return EXIT_BAD_PRIME


if __name__ == "__main__":
    sys.exit(main())
