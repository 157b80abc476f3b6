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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .errors import AlgebraFormatError, ExprSyntaxError, MissingBracketError
from .linalg import F0
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
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
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
                coeff = Fraction(num, int(den_tok[1]))
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


def identity(name, variables, source) -> Identity:
    expr = parse_expr(source)
    declared = set(variables)
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


def _eval(node, env, mul, bracket_mul):
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Scale):
        v = _eval(node.arg, env, mul, bracket_mul)
        return tuple(node.coeff * c for c in v)
    if isinstance(node, Add):
        a = _eval(node.left, env, mul, bracket_mul)
        b = _eval(node.right, env, mul, bracket_mul)
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(node, Sub):
        a = _eval(node.left, env, mul, bracket_mul)
        b = _eval(node.right, env, mul, bracket_mul)
        return tuple(x - y for x, y in zip(a, b))
    if isinstance(node, Prod):
        a = _eval(node.left, env, mul, bracket_mul)
        b = _eval(node.right, env, mul, bracket_mul)
        return mul(a, b)
    if isinstance(node, Bracket):
        if bracket_mul is None:
            raise MissingBracketError(
                "identity uses {,} but no bracket table was supplied"
            )
        a = _eval(node.left, env, mul, bracket_mul)
        b = _eval(node.right, env, mul, bracket_mul)
        return bracket_mul(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_identity(alg: Algebra, ident: Identity, assignment, bracket: Algebra = None):
    """Defect vector of the identity at concrete elements.

    `assignment` maps each free variable to a coordinate vector.
    """
    env = {v: tuple(assignment[v]) for v in ident.variables}
    bmul = bracket.mul_vec if bracket is not None else None
    return _eval(ident.expr, env, alg.mul_vec, bmul)


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
    of the six candidate values keeps the rest nonzero.
    """
    assignment = {}
    current = poly
    for v in poly.variables:
        if current.is_zero():
            break
        if v not in current.support_variables():
            assignment[v] = Fraction(0)
            continue
        for c in candidates:
            nxt = current.substitute(v, Poly.const(c, current.variables))
            if not nxt.is_zero():
                assignment[v] = Fraction(c)
                current = nxt
                break
        else:  # pragma: no cover - impossible for degree <= |candidates| - 1
            raise RuntimeError("no non-vanishing point found")
    return assignment


def check_identity(alg: Algebra, ident: Identity, bracket: Algebra = None) -> IdentityVerdict:
    """Exact verdict by full symbolic-coordinate expansion.

    Each free variable v becomes the generic vector (v1, ..., vn); the
    identity holds iff every coordinate of the expanded defect is the zero
    polynomial.  On failure the witness pins a nonzero monomial and a
    rational point where the defect is provably nonzero.
    """
    if ident.needs_bracket and bracket is None:
        raise MissingBracketError(
            f"identity {ident.name!r} uses {{,}} but no bracket table was supplied"
        )
    n = alg.dim
    symbols = tuple(f"{v}{i + 1}" for v in ident.variables for i in range(n))
    env = {
        v: tuple(Poly.var(f"{v}{i + 1}", symbols) for i in range(n))
        for v in ident.variables
    }
    bmul = bracket.mul_vec if bracket is not None else None
    defect = _eval(ident.expr, env, alg.mul_vec, bmul)
    for k, coord in enumerate(defect):
        if coord:
            exps, coeff = coord.leading()
            point = _find_nonvanishing(coord)
            vectors = {
                v: tuple(point.get(f"{v}{i + 1}", F0) for i in range(n))
                for v in ident.variables
            }
            concrete = evaluate_identity(alg, ident, vectors, bracket)
            witness = IdentityWitness(
                coordinate=k,
                monomial=exps,
                coefficient=coeff,
                symbols=symbols,
                assignment=vectors,
                defect=concrete,
            )
            return IdentityVerdict(ident, False, witness)
    return IdentityVerdict(ident, True)


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
    return all(v.holds for v in check_suite(alg, suite, bracket))
