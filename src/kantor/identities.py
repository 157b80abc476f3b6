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

One evaluator expands every expression, over coordinate-major vectors
with packed monomials (the sparse, packed-monomial layout of Monagan &
Pearce, CASC 2007): coordinate k is a polynomial {monomial: coefficient}.
Symbol t*n + i is coordinate i of the t-th free variable, and a monomial
is one int with a field of B bits per symbol, B being the bit length of
the expression's degree, and symbol 0 in the most significant field: no
exponent reaches 2**B, so multiplying monomials is adding ints, and int
order is lex order of exponent vectors.  A concrete vector sits at the
constant monomial 0, its coordinates taken through `linalg._sparse`, so
`evaluate_identity` runs the same code.

The defect is pulled one coordinate at a time, through the whole
expression tree.  Each `Identity` keeps a plan (`_plan`): for the root and
every product operand that is not a variable, the products and variables
reached from it through sums, each with the product of the sum
coefficients above it.  Coordinate k of such a node is the sum, over its
products, of f * c * left[i] * right[j] over the (i, j, c) that
`Algebra.by_output[k]` lists for the product's table, plus f * v[k] over
its variables.  An operand coordinate is built the first time a product
reads it, and kept for the rest of the call; a term whose left factor is
zero never reads its right one.  The defect is a unique polynomial
vector, so this changes no value: only how much of it is built.  Like the
heap multiplication of Monagan & Pearce, which produces terms in order so
that a caller can stop early, `defect_coordinates` yields the nonzero
coordinates in ascending order, so `check_identity`, `suite_holds` and
the cross-check of `conservative.verify_associated` stop at the first
one, having built only the operand coordinates it reads.  Coefficients
stay Python ints while they are integral (exact, and far cheaper than
Fraction).  The witness of a failing identity is read off the first
nonzero coordinate of its defect: the largest monomial, and a point found
by fixing one symbol at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import Algebra
from .errors import AlgebraFormatError, DimensionMismatchError, ExprSyntaxError, MissingBracketError
from .linalg import F0, _exact, _sparse, frac
from .storage import MAX_DIGITS, read_json

MAX_FREE_VARIABLES = 4
MAX_DEGREE = 5
# Most brackets, `(` or `{`, open at once that the parser accepts.  Only
# brackets nest (a sum of any length is one level), and parsing and
# evaluation recurse a few frames per open bracket.
MAX_NESTING = 100


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple  # ((Fraction coefficient, node), ...)


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object


def _children(node):
    if isinstance(node, Sum):
        return [t for _, t in node.terms]
    return () if isinstance(node, Var) else (node.left, node.right)


def free_variables(node):
    if isinstance(node, Var):
        return {node.name}
    return set().union(*map(free_variables, _children(node)))


def uses_bracket(node):
    return isinstance(node, Bracket) or any(map(uses_bracket, _children(node)))


def product_degree(node):
    """Number of algebra-product leaves in the deepest expansion."""
    if isinstance(node, Var):
        return 1
    degrees = map(product_degree, _children(node))
    return max(degrees) if isinstance(node, Sum) else sum(degrees)


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
    """Recursive descent over the grammar methods expr, term, factor and
    primary; only `primary` opens a bracket, so only it counts nesting."""

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

    def integer(self):
        """The next token, an integer of at most MAX_DIGITS digits, and its offset."""
        _, digits, offset = self.expect("int")
        if 0 < MAX_DIGITS < len(digits):
            raise ExprSyntaxError(f"number longer than {MAX_DIGITS} digits", offset)
        return int(digits), offset

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2])
        return e

    def expr(self):
        terms = [self.term(1)]
        while self.peek()[0] in "+-":
            terms.append(self.term(1 if self.next()[0] == "+" else -1))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self, sign):
        """(coefficient, node) of one term, the coefficient signed by `sign`."""
        coeff = Fraction(sign)
        if self.peek()[0] == "int":
            num, _ = self.integer()
            den = 1
            if self.peek()[0] == "/":
                self.next()
                den, offset = self.integer()
                if not den:
                    raise ExprSyntaxError("zero denominator", offset)
            coeff *= Fraction(num, den)
            self.expect("*")
        return coeff, self.factor()

    def factor(self):
        node = self.primary()
        if self.peek()[0] == "*":
            self.next()
            node = Prod(node, self.primary())
            t = self.peek()
            if t[0] == "*":
                raise ExprSyntaxError(
                    "products are binary; parenthesize nested products", t[2]
                )
        return node

    def primary(self):
        t = self.next()
        if t[0] == "var":
            return Var(t[1])
        if t[0] not in ("(", "{"):
            raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])
        if self.open_brackets >= MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", self.peek()[2])
        self.open_brackets += 1
        if t[0] == "(":
            node = self.expr()
            self.expect(")")
        else:
            left = self.expr()
            self.expect(",")
            node = Bracket(left, self.expr())
            self.expect("}")
        self.open_brackets -= 1
        return node


def parse_expr(src: str):
    """Parse the identity language into an AST."""
    return _Parser(src).parse()


@dataclass(frozen=True)
class Identity:
    name: str
    variables: tuple
    source: str
    expr: object

    @cached_property
    def needs_bracket(self) -> bool:
        return uses_bracket(self.expr)

    @cached_property
    def degree(self) -> int:
        """`product_degree` of the expression, walked once."""
        return product_degree(self.expr)

    @cached_property
    def plan(self) -> tuple:
        """(root, entries): how `_defect` pulls this identity's defect; see
        `_plan`."""
        return _plan(self.variables, self.expr)


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
    ident = Identity(name, tuple(variables), source, expr)
    if ident.degree > MAX_DEGREE:
        raise ExprSyntaxError(f"{name}: degree exceeds {MAX_DEGREE}", 0)
    return ident


# -- evaluation ---------------------------------------------------------------


def _plan(variables, expr):
    """(root, entries) for pulling the value of expr one coordinate at a
    time.  Slot t < len(variables) is the t-th variable, whose entry is
    None; every other slot is a node, the root or a product operand that
    is not a variable, and its entry is (products, leaves): the products
    reached from it through sums, as (f, is_bracket, left slot, right
    slot), and the variables so reached, as (f, slot).  f is the product of
    the sum coefficients on the way, an int wherever it is integral: a
    term's coefficient and its product with f are both made exact, so
    integers multiply as ints and an integral product of Fractions becomes
    one.  Equal operands share a slot, and an operand's slot comes before
    the slots that read it."""
    slots = {Var(v): t for t, v in enumerate(variables)}
    entries = [None] * len(variables)

    def reach(node, f, products, leaves):
        if isinstance(node, Sum):
            for coeff, arg in node.terms:
                reach(arg, _exact(f * _exact(coeff)), products, leaves)
        elif isinstance(node, Var):
            leaves.append((f, slots[node]))
        else:
            products.append((f, isinstance(node, Bracket), slot(node.left), slot(node.right)))

    def entry(node):
        products, leaves = [], []
        reach(node, 1, products, leaves)
        entries.append((tuple(products), tuple(leaves)))
        return len(entries) - 1

    def slot(node):
        t = slots.get(node)
        if t is None:
            t = slots[node] = entry(node)
        return t

    root = entry(expr)
    return root, tuple(entries)


def _defect(alg: Algebra, ident: Identity, columns, bracket: Algebra):
    """The defect of the identity at the vectors `columns`, the t-th
    variable's coordinates as a list of n polynomials {monomial: coeff}
    ({} for zero), as an iterator of (k, {monomial: coeff}) over its
    nonzero coordinates, k ascending.

    Coordinate k of a node is the sum over its plan's products of
    f * c * left[i] * right[j] over each (i, j, c) of the product's
    `Algebra.by_output[k]`, plus f * v[k] over its variables.  An operand
    coordinate is built the first time a product reads it, a right one
    only when the left factor of its term is nonzero, and kept for the
    rest of the iteration.  A missing or mismatched bracket raises here,
    before anything is built."""
    if ident.needs_bracket:
        if bracket is None:
            raise MissingBracketError(f"identity {ident.name!r} uses {{,}} but no bracket table was supplied")
        if bracket.dim != alg.dim:
            raise DimensionMismatchError.of(alg.dim, bracket.dim)
    n = alg.dim
    root, entries = ident.plan
    indexes = (alg.by_output, bracket.by_output if ident.needs_bracket else None)
    values = [*columns, *([None] * n for _ in entries[len(columns):])]

    def coordinate(s, k):
        products, leaves = entries[s]
        acc = {}
        for f, is_bracket, left_slot, right_slot in products:
            left, right = values[left_slot], values[right_slot]
            for i, j, c in indexes[is_bracket][k]:
                u = left[i]
                if u is None:
                    u = coordinate(left_slot, i)
                if not u:
                    continue
                v = right[j]
                if v is None:
                    v = coordinate(right_slot, j)
                if not v:
                    continue
                fc = f * c
                for m1, x in u.items():
                    cx = fc * x
                    for m2, y in v.items():
                        m = m1 + m2
                        acc[m] = acc.get(m, 0) + cx * y
        for f, t in leaves:
            for m, x in values[t][k].items():
                acc[m] = acc.get(m, 0) + f * x
        terms = values[s][k] = {m: c for m, c in acc.items() if c}
        return terms

    def nonzero():
        for k in range(n):
            terms = coordinate(root, k)
            if terms:
                yield k, terms

    return nonzero()


def evaluate_identity(alg: Algebra, ident: Identity, assignment, bracket: Algebra = None):
    """Defect vector of the identity at concrete elements.

    `assignment` maps each free variable to a coordinate vector.
    """
    n = alg.dim
    columns = []
    for v in ident.variables:
        coords = tuple(assignment[v])
        if len(coords) != n:
            raise DimensionMismatchError.of(n, len(coords))
        sparse = _sparse(coords)
        columns.append([{0: sparse[i]} if i in sparse else {} for i in range(n)])
    defect = dict(_defect(alg, ident, columns, bracket))
    return tuple(frac(defect[k][0]) if k in defect else F0 for k in range(n))


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


def _find_nonvanishing(terms, width, shifts, candidates=(0, 1, -1, 2, -2, 3)):
    """A point, {symbol: Fraction}, where the polynomial {monomial:
    coefficient} does not vanish, symbol s having the `width`-bit field at
    bit shifts[s] of each monomial; symbols it lacks stay free.

    Fixes its symbols in increasing order, so the one being fixed sits in
    the top field of every monomial left; degree <= 5 per symbol guarantees
    one of the six candidate values keeps the rest nonzero.
    """
    used = 0
    for m in terms:
        used |= m
    assignment = {}
    for s, shift in enumerate(shifts):
        if not used >> shift & (1 << width) - 1:
            continue
        for c in candidates:
            fixed = {}
            for m, coeff in terms.items():
                e = m >> shift
                rest = m - (e << shift)
                fixed[rest] = fixed.get(rest, 0) + coeff * c**e
            fixed = {m: coeff for m, coeff in fixed.items() if coeff}
            if fixed:
                assignment[s] = Fraction(c)
                terms = fixed
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


def _fields(ident: Identity, n: int):
    """(width, shifts) of the packed monomials of `ident` over dim n: symbol
    s has the field of `width` bits at bit shifts[s], symbol 0 highest.  No
    exponent exceeds the identity's degree, so none carries into the next
    field."""
    width, count = ident.degree.bit_length(), len(ident.variables) * n
    return width, tuple(width * (count - 1 - s) for s in range(count))


def defect_coordinates(alg: Algebra, ident: Identity, bracket: Algebra = None):
    """The defect at generic vectors, as an iterator of (k, {monomial:
    coeff}) over its nonzero coordinates, k ascending, every coefficient
    nonzero; empty iff the identity holds.  Each coordinate is pulled
    only when reached, so a caller that needs the first stops there.
    Monomials are packed as `_fields` says.  A missing or mismatched
    bracket raises here, before anything is expanded."""
    n = alg.dim
    _, shifts = _fields(ident, n)
    columns = [[{1 << shifts[t * n + i]: 1} for i in range(n)] for t in range(len(ident.variables))]
    return _defect(alg, ident, columns, bracket)


def generic_defect(alg: Algebra, ident: Identity, bracket: Algebra = None):
    """Every coordinate of `defect_coordinates`, as {coordinate: {monomial:
    coeff}}: empty iff the identity holds."""
    return dict(defect_coordinates(alg, ident, bracket))


def check_identity(alg: Algebra, ident: Identity, bracket: Algebra = None) -> IdentityVerdict:
    """Exact verdict by symbolic-coordinate expansion.

    Each free variable v becomes the generic vector (v1, ..., vn); the
    identity holds iff every coordinate of the expanded defect is the zero
    polynomial.  On failure the witness pins the lex-largest monomial of the
    first nonzero coordinate and a rational point where the defect is
    provably nonzero; no later coordinate is expanded.
    """
    n = alg.dim
    first = next(defect_coordinates(alg, ident, bracket), None)
    if first is None:
        return IdentityVerdict(ident, True)
    k, terms = first
    leading = max(terms)  # int order of packed monomials is lex order
    width, shifts = _fields(ident, n)
    point = _find_nonvanishing(terms, width, shifts)
    vectors = {
        v: tuple(point.get(t * n + i, F0) for i in range(n))
        for t, v in enumerate(ident.variables)
    }
    witness = IdentityWitness(
        coordinate=k,
        monomial=tuple(leading >> shift & (1 << width) - 1 for shift in shifts),
        coefficient=frac(terms[leading]),
        symbols=_symbol_names(ident.variables, n),
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
    """True iff every identity of the suite holds; stops at the first
    nonzero coordinate of the first that fails, and builds no witness."""
    return not any(next(defect_coordinates(alg, ident, bracket), None) for ident in suite.identities)


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
