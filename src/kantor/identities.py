"""A tiny expression language for polynomial identities, verified exactly.

Grammar (products are binary and fully parenthesized; `*` is the algebra
product, `{a,b}` an optional second product):

    expr     := term (('+'|'-') term)*
    term     := [rational '*'] factor
    factor   := var | '(' expr ')' | factor '*' factor | '{' expr ',' expr '}'
    rational := int ['/' int]

An identity is an expression asserted identically zero.  Verification
substitutes a generic vector (symbolic coordinates) for every free
variable and expands the coordinates as polynomials: the identity holds
iff every coordinate polynomial vanishes.  Over characteristic zero this
decides non-multilinear identities (Jordan, Malcev, ...) without any
linearization calculus.

One evaluator expands every expression, over vectors stored as
{monomial: {coordinate: coefficient}} (the sparse, packed-monomial layout
of Monagan & Pearce, CASC 2007).  A monomial is the sorted tuple of the
symbol indices it multiplies, where symbol t*n + i is coordinate i of the
t-th free variable.  Products go to `Algebra.mul_expanded`, the package's
one product kernel, which walks the nonzero structure constants of
`Algebra.sparse_table`.  A concrete vector is the constant monomial (), so
`evaluate_identity` runs the same code.
Coefficients stay Python ints while they are integral (exact, and far
cheaper than Fraction).  Only the first nonzero coordinate of a failing
defect becomes a `Poly` over Fractions, which supplies the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, _prune
from .errors import AlgebraFormatError, DimensionMismatchError, ExprSyntaxError, MissingBracketError
from .linalg import F0, exact, frac
from .poly import Poly
from .storage import read_json

MAX_FREE_VARIABLES = 4
MAX_DEGREE = 5
# Deepest expression tree, and most brackets open at once, that the parser
# accepts; parsing and evaluation recurse once per level.
MAX_NESTING = 100


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object


def free_variables(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Scale):
        return free_variables(node.arg)
    return free_variables(node.left) | free_variables(node.right)


def uses_bracket(node):
    if isinstance(node, Var):
        return False
    if isinstance(node, Scale):
        return uses_bracket(node.arg)
    if isinstance(node, Bracket):
        return True
    return uses_bracket(node.left) or uses_bracket(node.right)


def product_degree(node):
    """Number of algebra-product leaves in the deepest expansion."""
    if isinstance(node, Var):
        return 1
    if isinstance(node, Scale):
        return product_degree(node.arg)
    if isinstance(node, (Prod, Bracket)):
        return product_degree(node.left) + product_degree(node.right)
    return max(product_degree(node.left), product_degree(node.right))


# -- tokenizer / parser -------------------------------------------------------

_SYMBOLS = "+-*(){},/"


def _tokenize(src):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("var", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent; the grammar methods (expr, term, factor, primary)
    return (node, depth of its tree)."""

    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.open_brackets = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def nest(self, depth):
        """One level below `depth`, refused beyond MAX_NESTING."""
        if depth >= MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", self.peek()[2])
        return depth + 1

    def parse(self):
        e, _ = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2])
        return e

    def expr(self):
        node, depth = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs, d = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
            depth = self.nest(max(depth, d))
        return node, depth

    def term(self):
        if self.peek()[0] == "int":
            num = int(self.next()[1])
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if not den:
                    raise ExprSyntaxError("zero denominator", den_tok[2])
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            self.expect("*")
            node, depth = self.factor()
            return Scale(coeff, node), self.nest(depth)
        return self.factor()

    def factor(self):
        node, depth = self.primary()
        if self.peek()[0] == "*":
            self.next()
            rhs, d = self.primary()
            node, depth = Prod(node, rhs), self.nest(max(depth, d))
            t = self.peek()
            if t[0] == "*":
                raise ExprSyntaxError(
                    "products are binary; parenthesize nested products", t[2]
                )
        return node, depth

    def primary(self):
        t = self.next()
        if t[0] == "var":
            return Var(t[1]), 1
        if t[0] not in ("(", "{"):
            raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])
        self.open_brackets = self.nest(self.open_brackets)
        if t[0] == "(":
            inner = self.expr()
            self.expect(")")
        else:
            left, dl = self.expr()
            self.expect(",")
            right, dr = self.expr()
            self.expect("}")
            inner = Bracket(left, right), self.nest(max(dl, dr))
        self.open_brackets -= 1
        return inner


def parse_expr(src: str):
    """Parse the identity language into an AST."""
    return _Parser(src).parse()


@dataclass(frozen=True)
class Identity:
    name: str
    variables: tuple
    source: str
    expr: object

    @property
    def needs_bracket(self) -> bool:
        return uses_bracket(self.expr)


def _is_variable_name(v) -> bool:
    """True iff v is exactly one `var` token of the expression language."""
    try:
        tokens = _tokenize(v)
    except ExprSyntaxError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("var", v)


def identity(name, variables, source) -> Identity:
    expr = parse_expr(source)
    for v in variables:
        if not _is_variable_name(v):
            raise ExprSyntaxError(f"{name}: {v!r} is not a variable name", 0)
    declared = set(variables)
    if len(declared) < len(tuple(variables)):
        raise ExprSyntaxError(f"{name}: repeated variable in {list(variables)}", 0)
    used = free_variables(expr)
    if not used <= declared:
        raise ExprSyntaxError(
            f"undeclared variables {sorted(used - declared)} in {name}", 0
        )
    if len(declared) > MAX_FREE_VARIABLES:
        raise ExprSyntaxError(f"{name}: more than {MAX_FREE_VARIABLES} free variables", 0)
    if product_degree(expr) > MAX_DEGREE:
        raise ExprSyntaxError(f"{name}: degree exceeds {MAX_DEGREE}", 0)
    return Identity(name, tuple(variables), source, expr)


# -- evaluation ---------------------------------------------------------------


def _scale(vector, coeff):
    return _prune({m: {k: coeff * c for k, c in coords.items()} for m, coords in vector.items()})


def _add(a, b):
    out = {m: dict(coords) for m, coords in a.items()}
    for m, coords in b.items():
        acc = out.setdefault(m, {})
        for k, c in coords.items():
            acc[k] = acc.get(k, 0) + c
    return _prune(out)


def _eval(node, env, alg, bracket):
    """Value of an expression over vectors {monomial: {coordinate: coeff}}."""
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Scale):
        return _scale(_eval(node.arg, env, alg, bracket), exact(node.coeff))
    if not isinstance(node, (Add, Sub, Prod, Bracket)):
        raise TypeError(f"not an expression node: {node!r}")
    if isinstance(node, Bracket) and bracket is None:
        raise MissingBracketError("identity uses {,} but no bracket table was supplied")
    a = _eval(node.left, env, alg, bracket)
    b = _eval(node.right, env, alg, bracket)
    if isinstance(node, Add):
        return _add(a, b)
    if isinstance(node, Sub):
        return _add(a, _scale(b, -1))
    return (alg if isinstance(node, Prod) else bracket).mul_expanded(a, b)


def _expand(alg: Algebra, ident: Identity, env, bracket: Algebra):
    """The defect of the identity over the vectors in `env`."""
    if bracket is not None and ident.needs_bracket and bracket.dim != alg.dim:
        raise DimensionMismatchError.of(alg.dim, bracket.dim)
    return _eval(ident.expr, env, alg, bracket)


def evaluate_identity(alg: Algebra, ident: Identity, assignment, bracket: Algebra = None):
    """Defect vector of the identity at concrete elements.

    `assignment` maps each free variable to a coordinate vector.
    """
    n = alg.dim
    env = {}
    for v in ident.variables:
        coords = tuple(assignment[v])
        if len(coords) != n:
            raise DimensionMismatchError.of(n, len(coords))
        nonzero = {i: exact(c) for i, c in enumerate(coords) if c}
        env[v] = {(): nonzero} if nonzero else {}
    defect = _expand(alg, ident, env, bracket).get((), {})
    return tuple(frac(defect.get(k, F0)) for k in range(n))


@dataclass(frozen=True)
class IdentityWitness:
    coordinate: int         # output coordinate whose polynomial is nonzero
    monomial: tuple         # exponent vector over `symbols`
    coefficient: Fraction
    symbols: tuple          # symbolic coordinate names, (var, coord)-ordered
    assignment: dict        # targeted rational point with nonzero defect
    defect: tuple           # defect vector at that assignment


@dataclass(frozen=True)
class IdentityVerdict:
    identity: Identity
    holds: bool
    witness: object = None

    def __bool__(self):
        return self.holds


def _find_nonvanishing(poly: Poly, candidates=(0, 1, -1, 2, -2, 3)):
    """A point where a nonzero polynomial does not vanish.

    Fixes variables one at a time; degree <= 5 per variable guarantees one
    of the six candidate values keeps the rest nonzero.  The support is read
    once: fixing a variable only shrinks it, and a variable that has left it
    keeps the polynomial unchanged at the first candidate, 0.
    """
    assignment = {}
    current = poly
    support = poly.support_variables()
    for v in poly.variables:
        if v not in support:
            assignment[v] = Fraction(0)
            continue
        for c in candidates:
            nxt = current.substitute(v, c)
            if not nxt.is_zero():
                assignment[v] = Fraction(c)
                current = nxt
                break
        else:  # pragma: no cover - impossible for degree <= |candidates| - 1
            raise RuntimeError("no non-vanishing point found")
    return assignment


def _symbol_names(variables, n):
    """Names of the symbolic coordinates, (var, coord)-ordered: `v1..vn`
    for each variable v, or `v_1..v_n` where the short names would clash
    (`a` and `a1` share `a11` from dim 11 on)."""
    names = tuple(f"{v}{i + 1}" for v in variables for i in range(n))
    if len(set(names)) < len(names):
        names = tuple(f"{v}_{i + 1}" for v in variables for i in range(n))
    return names


def generic_defect(alg: Algebra, ident: Identity, bracket: Algebra = None):
    """The defect at generic vectors, as {monomial: {coordinate: coeff}}
    with every coefficient nonzero; empty iff the identity holds."""
    if ident.needs_bracket and bracket is None:
        raise MissingBracketError(
            f"identity {ident.name!r} uses {{,}} but no bracket table was supplied"
        )
    n = alg.dim
    env = {
        v: {(t * n + i,): {i: 1} for i in range(n)}
        for t, v in enumerate(ident.variables)
    }
    return _expand(alg, ident, env, bracket)


def check_identity(alg: Algebra, ident: Identity, bracket: Algebra = None) -> IdentityVerdict:
    """Exact verdict by full symbolic-coordinate expansion.

    Each free variable v becomes the generic vector (v1, ..., vn); the
    identity holds iff every coordinate of the expanded defect is the zero
    polynomial.  On failure the witness pins a nonzero monomial and a
    rational point where the defect is provably nonzero.
    """
    n = alg.dim
    defect = generic_defect(alg, ident, bracket)
    if not defect:
        return IdentityVerdict(ident, True)
    k = min(k for coords in defect.values() for k in coords)
    symbols = _symbol_names(ident.variables, n)
    terms = {}
    for m, coords in defect.items():
        if k in coords:
            exps = [0] * len(symbols)
            for s in m:
                exps[s] += 1
            terms[tuple(exps)] = frac(coords[k])
    coord = Poly(symbols, terms)
    exps, coeff = coord.leading()
    point = _find_nonvanishing(coord)
    vectors = {
        v: tuple(point.get(symbols[t * n + i], F0) for i in range(n))
        for t, v in enumerate(ident.variables)
    }
    witness = IdentityWitness(
        coordinate=k,
        monomial=exps,
        coefficient=coeff,
        symbols=symbols,
        assignment=vectors,
        defect=evaluate_identity(alg, ident, vectors, bracket),
    )
    return IdentityVerdict(ident, False, witness)


# -- builtin catalogue --------------------------------------------------------


@dataclass(frozen=True)
class IdentitySuite:
    """A named variety test: all member identities must hold."""

    name: str
    identities: tuple

    @property
    def needs_bracket(self) -> bool:
        return any(i.needs_bracket for i in self.identities)


def _suite(name, *idents):
    return IdentitySuite(name, tuple(idents))


_ASSOC = identity("associative", ("a", "b", "c"), "(a*b)*c - a*(b*c)")
_COMM = identity("commutative", ("a", "b"), "a*b - b*a")
_ANTI = identity("anticommutative", ("a", "b"), "a*b + b*a")
_JACOBI = identity("jacobi", ("a", "b", "c"), "(a*b)*c + (b*c)*a + (c*a)*b")
_JORDAN = identity("jordan_power", ("a", "b"), "((a*a)*b)*a - (a*a)*(b*a)")
_FLEX = identity("flexible", ("a", "b"), "(a*b)*a - a*(b*a)")
_LEIBNIZ = identity("left_leibniz", ("a", "b", "c"), "a*(b*c) - (a*b)*c - b*(a*c)")
_MALCEV = identity(
    "malcev",
    ("a", "x", "y"),
    "((a*x)*y)*a + ((x*y)*a)*a + ((y*a)*x)*a"
    " - (a*x)*(a*y) - (x*(a*y))*a - ((a*y)*a)*x",
)
_LEFTCOMM = identity("left_commutative", ("a", "b", "x"), "a*(b*x) - b*(a*x)")
_POISSON = identity(
    "poisson_leibniz", ("a", "b", "c"), "{a*b, c} - a*{b, c} - {a, c}*b"
)
_CONS_LEFTCOMM = identity(
    "conservative_left_commutative",
    ("a", "b", "x", "y"),
    "(a*(b*x))*y - ({a, b}*x)*y",
)

CATALOG = (
    _suite("associative", _ASSOC),
    _suite("commutative", _COMM),
    _suite("anticommutative", _ANTI),
    _suite("jordan", _COMM, _JORDAN),
    _suite("lie", _ANTI, _JACOBI),
    _suite("left_leibniz", _LEIBNIZ),
    _suite("malcev", _ANTI, _MALCEV),
    _suite("flexible", _FLEX),
    _suite("noncommutative_jordan", _FLEX, _JORDAN),
    _suite("left_commutative", _LEFTCOMM),
    _suite("poisson_leibniz", _POISSON),
    _suite("conservative_left_commutative", _CONS_LEFTCOMM),
)


def builtin_identities():
    """The named catalogue, as {name: IdentitySuite}."""
    return {s.name: s for s in CATALOG}


def load_identity(path) -> Identity:
    """Read an identity file: {"name": ..., "vars": [...], "zero": "<expr>"}."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise AlgebraFormatError("top level must be an object", str(path))
    for field_name in ("name", "vars", "zero"):
        if field_name not in doc:
            raise AlgebraFormatError(f"missing field {field_name!r}", str(path))
    variables = doc["vars"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise AlgebraFormatError("vars must be a list of variable names", f"{path}.vars")
    return identity(str(doc["name"]), tuple(variables), str(doc["zero"]))


def check_suite(alg: Algebra, suite: IdentitySuite, bracket: Algebra = None):
    """Verdicts for every identity in a suite (all must hold to pass)."""
    return tuple(check_identity(alg, ident, bracket) for ident in suite.identities)


def suite_holds(alg: Algebra, suite: IdentitySuite, bracket: Algebra = None) -> bool:
    """True iff every identity of the suite holds; stops at the first that
    fails, and builds no witness."""
    return not any(generic_defect(alg, ident, bracket) for ident in suite.identities)


# Every product of four elements vanishes, in each of its 5 bracketings; each
# identity is named by its product.  Kept out of CATALOG, which the CLI lists:
# this is a fixture's defining property, not a variety.
NILPOTENT4 = _suite("nilpotent4", *(
    identity(product, ("a", "b", "c", "d"), product)
    for product in ("((a*b)*c)*d", "(a*b)*(c*d)", "(a*(b*c))*d", "a*((b*c)*d)", "a*(b*(c*d))")
))


def is_nilpotent4(alg: Algebra) -> bool:
    """True iff every 4-fold product vanishes, in all 5 bracketings."""
    return suite_holds(alg, NILPOTENT4)
