"""theta (and phi at a section) is reduced into [0, 2*pi) in one function.

``scattering._mod_two_pi`` is the package's one reduction, so a change of
theta's period is a change of that function alone.  Three functions keep
their own arithmetic: the brute oracle and the pseudo-orbit verifier, which
stay independent of the code they check, and ``crests.tangency_points``,
whose angle lives on the (phi, sigma) torus and keeps period 2*pi at every
r.  The source files are parsed, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pendrotor"

ALLOWED = {
    "scattering._mod_two_pi",
    "oracles.brute_tau_scan",
    "diffusion.verify_pseudo_orbit",
    "crests.tangency_points",
}

#: calls that reduce an angle without a ``%``
MOD_CALLS = {"np.mod", "np.remainder", "np.fmod", "numpy.mod", "math.fmod",
             "math.remainder"}


def _is_reduction(node: ast.AST) -> bool:
    """``x % <angle period>``, ``x %= <angle period>`` or a mod call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op,
                                                                   ast.Mod):
        period = node.right if isinstance(node, ast.BinOp) else node.value
        return "pi" in ast.unparse(period).lower()
    return isinstance(node, ast.Call) and ast.unparse(node.func) in MOD_CALLS


def _sites(path: Path) -> list[tuple[str, int]]:
    """(module.function, line) of every reduction in one source file; code
    outside any function reads as ``module.<module>``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if _is_reduction(node):
            found.append((f"{path.stem}.{owner}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _all_sites() -> list[tuple[str, int]]:
    return [s for path in sorted(SRC.glob("*.py")) for s in _sites(path)]


def test_theta_is_reduced_only_in_mod_two_pi():
    stray = [s for s in _all_sites() if s[0] not in ALLOWED]
    assert not stray, ("reduce theta through scattering._mod_two_pi; found "
                       f"reductions at {stray}")


def test_each_exempt_function_keeps_its_own_reduction():
    # no exemption is stale, and the walker does see their reductions
    assert {owner for owner, _ in _all_sites()} == ALLOWED


def test_walker_finds_each_form():
    code = ("def f(x):\n    a = x % TWO_PI\n    b = x % (2.0 * math.pi)\n"
            "    x %= TWO_PI\n    c = np.mod(x, TWO_PI)\n    d = k % 2\n")
    lines = sorted(n.lineno for n in ast.walk(ast.parse(code))
                   if _is_reduction(n))
    assert lines == [2, 3, 4, 5]
