"""Environment builders the benchmark's jobs and sessions name by
dotted reference (``pb_envs:term_variants_env``).

Pool workers and the server import this module by name, so the
benchmark puts its directory on their ``PYTHONPATH``.
"""

from __future__ import annotations

from typing import Any

#: Pre-declared ``Term`` variants (Section 6.1.2): new-type constructor
#: orders and renames.
TERM_VARIANTS = (
    (["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"], {}),
    (["Var", "Int", "Eq", "Times", "Plus", "Minus", "Choose"], {}),
    (
        None,
        {"Var": "Atom", "Int": "Lit", "Eq": "Equal", "Plus": "Add",
         "Times": "Mul", "Minus": "Sub", "Choose": "Epsilon"},
    ),
    (["Var", "Int", "Eq", "Times", "Minus", "Plus", "Choose"], {}),
)


def term_variants_env() -> Any:
    """Figure 16's development plus the variant types ``V0.Term`` ..
    ``V3.Term`` (swap Int/Eq, swap Plus/Times, rename all, 3-cycle)."""
    from repro.cases.replica import declare_term_language, setup_environment

    env = setup_environment()
    for k, (order, renames) in enumerate(TERM_VARIANTS):
        declare_term_language(env, f"V{k}.Term", order=order, renames=renames)
    return env
