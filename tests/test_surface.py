"""Every public function, class and method of ``planact`` has a reader in the program.

The check parses ``src/`` and ``perfbench/`` with ``ast`` and collects every
name they read: identifiers, attribute names, imported names and their
aliases, and the dotted string targets the benchmark tracer patches (such as
``"Tensor.backward"``).  A public definition (its name has no leading
underscore; module level, in a class or inside a function) passes when its
name is read somewhere outside the definition itself.  Tests do not count as
readers.

Names are matched by spelling only.  A method that shares its name with a
numpy function or method (``exp``, ``log``, ``sqrt``, ``sum`` ...) or with any
other attribute the program reads looks used even when nothing calls it, so
this check cannot see such methods.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planact"
READERS = (ROOT / "src", ROOT / "perfbench")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# public definitions that stay without a reader in the program, and why
ALLOWED = {
    "checkpoint.save_checkpoint": "checkpoint trio: ROADMAP item 4 gives it a caller or deletes it",
    "checkpoint.load_checkpoint": "checkpoint trio: ROADMAP item 4 gives it a caller or deletes it",
    "checkpoint.restore_into": "checkpoint trio: ROADMAP item 4 gives it a caller or deletes it",
    "bridge.QueryBridge.project_to_lm": "bridge-to-LM path: ROADMAP item 3 decides its fate",
    "vocab.detokenize": "ROADMAP items 3 and 4 read sampled plan ids as text",
    "policy.pretrain_bridge": "the closed-loop gate calls it; ROADMAP items 4 and 16 give it "
                              "a program caller",
    "gradcheck.check_gradients": "the finite-difference reference every gradient test uses",
    "embedder.make_embed_server.Handler.do_POST": "http.server calls it for each POST",
    "embedder.make_embed_server.Handler.log_message": "http.server calls it to log a request",
    "embedder.make_embed_server.Handler.handle": "socketserver calls it for each connection",
}


class _Scan(ast.NodeVisitor):
    """Definitions with their qualified names, and every name read, with the
    definitions that enclose the read."""

    def __init__(self, module: str):
        self.module = module
        self.stack: list[ast.AST] = []
        self.names: list[str] = []
        self.definitions: list[tuple[str, str, ast.AST]] = []
        self.reads: list[tuple[str, frozenset[ast.AST]]] = []

    def _read(self, name: str) -> None:
        self.reads.append((name, frozenset(self.stack)))

    def _define(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.names.append(node.name)
        if not node.name.startswith("_"):
            self.definitions.append((".".join([self.module, *self.names]), node.name, node))
        self.stack.append(node)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self.stack.pop()
        self.names.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        for name in filter(None, (node.name, node.asname)):
            for part in name.split("."):
                self._read(part)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        # the literal pieces of an f-string are text, not targets
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                self.visit(value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                self._read(part)


def _scan_program():
    """Public definitions of the package as ``(qualified name, name, node, path)``, and
    for each name read, the set of definitions enclosing each read."""
    definitions, reads = [], {}
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            module = path.stem if path.parent == PACKAGE else ""
            scan = _Scan(module)
            scan.visit(ast.parse(path.read_text(), filename=str(path)))
            if path.parent == PACKAGE:
                definitions.extend((*d, path) for d in scan.definitions)
            for name, enclosing in scan.reads:
                reads.setdefault(name, []).append(enclosing)
    return definitions, reads


def _unread() -> dict[str, str]:
    """Qualified name -> ``file:line`` of every public definition nothing reads."""
    definitions, reads = _scan_program()
    return {
        qualified: f"{path.relative_to(ROOT)}:{node.lineno}"
        for qualified, name, node, path in definitions
        if all(node in enclosing for enclosing in reads.get(name, []))
    }


def test_every_public_definition_has_a_reader():
    unread = {name: where for name, where in _unread().items() if name not in ALLOWED}
    assert not unread, (
        "public definitions no code in src/ or perfbench/ reads; delete them, or add them "
        f"to ALLOWED with a reason: {unread}"
    )


def test_allowed_entries_are_still_unread():
    stale = sorted(set(ALLOWED) - set(_unread()))
    assert not stale, f"ALLOWED entries that now have a reader or no longer exist: {stale}"
