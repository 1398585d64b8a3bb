"""Helpers shared by the test modules."""

from picard20.qforms import FormClassGroup, compose


def composition_table(group: FormClassGroup) -> list[list[int]]:
    """Index table t[i][j] with forms[i] * forms[j] = forms[t[i][j]], from compose."""
    forms = group.reduced_forms
    index = {f: i for i, f in enumerate(forms)}
    return [[index[compose(f, g)] for g in forms] for f in forms]
