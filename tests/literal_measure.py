"""The measure audits as literally stated: the test oracle.

These are the pair loops over every set of the algebra (O(4^n) on a
powerset of n atoms) that `metastable.measure` replaces by closed forms over
the atom weights.  mu is the literal sum of the weights, memoized per set
so that the loops stay fast enough to run on every example.
"""

from fractions import Fraction

from metastable.measure import LInfFunction, Report, ReportEntry, integrate

# clauses the oracle checks and the audits leave out, because they are
# identities of the representation (mu and the integral are weighted sums)
IDENTITIES = {"mu({}) = 0", "modularity", "linearity", "I(chi_A) = mu(A)"}


def literal_mu(M):
    cache = {}

    def mu(A):
        A = frozenset(A)
        if A not in cache:
            cache[A] = sum((M.weights[w] for w in A), Fraction(0))
        return cache[A]

    return mu


def literal_sup(M) -> Fraction:
    """sup over pairs of sets of |mu(A)| + |mu(B)| - |mu(A & B)|; the family
    must be closed under intersection."""
    mu = literal_mu(M)
    family = list(M.sets())
    size = {A: abs(mu(A)) for A in family}
    best = Fraction(0)
    for A in family:
        for B in family:
            value = size[A] + size[B] - size[A & B]
            if value > best:
                best = value
    return best


def audit_total_variation(M) -> Fraction:
    """The literal sup where it is defined (the family is closed under
    intersection), the sum of |weights| where it is not."""
    family = list(M.sets())
    index = set(family)
    if all(A & B in index for A in family for B in family):
        return literal_sup(M)
    return sum((abs(M.weights[w]) for w in M.omega), Fraction(0))


def _fmt_set(A) -> str:
    return "{" + ", ".join(sorted(A)) + "}"


def audit_preloeb(M) -> Report:
    """Every axiom clause by its pair loop, identities included."""
    mu = literal_mu(M)
    entries = []
    family = list(M.sets())
    index = set(family)
    universe = frozenset(M.omega)

    def closure(name, result, witness):
        if result in index:
            return None
        return ReportEntry(name, False, witness())

    entry = ReportEntry("algebra contains empty set and the whole space", True)
    if frozenset() not in index:
        entry = ReportEntry(entry.clause, False, "missing {}")
    elif universe not in index:
        entry = ReportEntry(entry.clause, False, f"missing {_fmt_set(universe)}")
    entries.append(entry)

    bad = None
    for A in family:
        for B in family:
            bad = (closure("closed under union", A | B,
                           lambda: f"{_fmt_set(A)} ∪ {_fmt_set(B)}")
                   or closure("closed under intersection", A & B,
                              lambda: f"{_fmt_set(A)} ∩ {_fmt_set(B)}"))
            if bad:
                break
        if bad:
            break
    entries.append(bad or ReportEntry("closed under union", True))
    if not bad:
        entries.append(ReportEntry("closed under intersection", True))

    comp_bad = None
    for A in family:
        comp_bad = closure("closed under complement", universe - A,
                           lambda: f"complement of {_fmt_set(A)}")
        if comp_bad:
            break
    entries.append(comp_bad or ReportEntry("closed under complement", True))

    if frozenset() in index:
        ok = mu(frozenset()) == 0
        entries.append(ReportEntry("mu({}) = 0", ok, "" if ok else "mu({}) != 0"))

    mod_bad = None
    for A in family:
        for B in family:
            if (A | B) in index and (A & B) in index:
                if mu(A | B) + mu(A & B) != mu(A) + mu(B):
                    mod_bad = ReportEntry(
                        "modularity", False, f"{_fmt_set(A)}, {_fmt_set(B)}"
                    )
                    break
        if mod_bad:
            break
    entries.append(mod_bad or ReportEntry("modularity", True))

    tv = audit_total_variation(M)
    if M.kind in ("probability", "finite"):
        pos_bad = None
        for A in family:
            if mu(A) < 0:
                pos_bad = ReportEntry(
                    "0 <= mu(A)", False, f"mu({_fmt_set(A)}) = {mu(A)}"
                )
                break
        entries.append(pos_bad or ReportEntry("0 <= mu(A)", True))
        top_bad = None
        if universe in index:
            for A in family:
                if mu(A) > mu(universe):
                    top_bad = ReportEntry(
                        "mu(A) <= mu(Omega)", False,
                        f"mu({_fmt_set(A)}) = {mu(A)}"
                    )
                    break
        entries.append(top_bad or ReportEntry("mu(A) <= mu(Omega)", True))
        if M.kind == "probability":
            ok = tv == 1
            entries.append(ReportEntry(
                "probability: total variation 1", ok,
                "" if ok else f"‖mu‖ = {tv}"
            ))
    if M.bound is not None:
        ok = tv <= M.bound
        entries.append(ReportEntry(
            "total variation within declared bound", ok,
            "" if ok else f"‖mu‖ = {tv} > C = {M.bound}"
        ))
    return Report(tuple(entries))


ALPHAS = (Fraction(2), Fraction(-1, 2), Fraction(1, 3))


def audit_integration(M, functions) -> Report:
    """Every integration clause by its loop, identities included; each
    integral is recomputed wherever a clause needs it."""
    fs = list(functions)
    mu = literal_mu(M)
    entries = []
    norm_mu = audit_total_variation(M)

    lin_bad = None
    for f in fs:
        for g in fs:
            for a in ALPHAS:
                if integrate(M, a * f + g) != a * integrate(M, f) + integrate(M, g):
                    lin_bad = ReportEntry("linearity", False, f"alpha = {a}")
                    break
            if lin_bad:
                break
        if lin_bad:
            break
    entries.append(lin_bad or ReportEntry("linearity", True))

    if M.kind in ("probability", "finite"):
        box_bad = None
        for f in fs:
            value = integrate(M, f)
            if not (norm_mu * f.inf() <= value <= norm_mu * f.sup()):
                box_bad = ReportEntry(
                    "‖mu‖ inf f <= If <= ‖mu‖ sup f", False, f"If = {value}"
                )
                break
        entries.append(box_bad or ReportEntry(
            "‖mu‖ inf f <= If <= ‖mu‖ sup f", True))
        pos_bad = None
        for f in fs:
            if f.inf() >= 0 and integrate(M, f) < 0:
                pos_bad = ReportEntry("positivity", False,
                                      f"If = {integrate(M, f)}")
                break
        entries.append(pos_bad or ReportEntry("positivity", True))
    else:
        sgn_bad = None
        for f in fs:
            if abs(integrate(M, f)) > norm_mu * f.norm():
                sgn_bad = ReportEntry(
                    "|If| <= ‖mu‖ ‖f‖", False, f"If = {integrate(M, f)}"
                )
                break
        entries.append(sgn_bad or ReportEntry("|If| <= ‖mu‖ ‖f‖", True))

    lip_bad = None
    for f in fs:
        for g in fs:
            if abs(integrate(M, f) - integrate(M, g)) > norm_mu * (f - g).norm():
                lip_bad = ReportEntry("Lipschitz", False, "pair of samples")
                break
        if lip_bad:
            break
    entries.append(lip_bad or ReportEntry("Lipschitz", True))

    chi_bad = None
    for A in M.sets():
        if integrate(M, LInfFunction.chi(M.omega, A)) != mu(A):
            chi_bad = ReportEntry("I(chi_A) = mu(A)", False, _fmt_set(A))
            break
    entries.append(chi_bad or ReportEntry("I(chi_A) = mu(A)", True))
    return Report(tuple(entries))


def without_identities(report: Report) -> tuple:
    """The report's entries other than the identities, which must pass."""
    for entry in report.entries:
        assert entry.ok or entry.clause not in IDENTITIES, entry
    return tuple(e for e in report.entries if e.clause not in IDENTITIES)
