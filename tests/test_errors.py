"""The stable error codes: the list in errors.py is the set the library raises."""

import ast
import pathlib
import re

import picard20
from picard20 import errors

SRC = pathlib.Path(picard20.__file__).parent


def code_arguments() -> list:
    """The first argument of every VerificationError(...) call in the package."""
    return [
        node.args[0]
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "VerificationError"
    ]


def documented_codes() -> set[str]:
    doc = errors.VerificationError.__doc__
    listed = doc.split("Codes in use:", 1)[1].split(".", 1)[0]
    return set(re.findall(r"[A-Z0-9_]+", listed))


def test_codes_in_use_are_the_codes_raised():
    args = code_arguments()
    assert all(isinstance(arg, ast.Constant) for arg in args)
    assert {arg.value for arg in args} == documented_codes()
