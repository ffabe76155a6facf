"""Walk through the model format and the three validity handlers.

A test case for the printer model fixes a paper size, a feed tray, and a
paper type.  Two constraints couple the parameters, and their interaction
makes one pair of values untestable even though no single constraint
forbids it: B4 forces the bypass tray, and the bypass tray forbids thick
paper, so B4 plus thick paper can never appear together.
"""

from pathlib import Path

from citbdd import build_handler, eval_constraints, format_constraint, parse_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def main():
    model = parse_model((MODELS / "printer.model").read_text(encoding="utf-8"))

    print("parameters:")
    for p in model.params:
        print(f"  {p.name}: {', '.join(p.domain)}")
    print("constraints:")
    for c in model.constraints:
        print(f"  {format_constraint(c, model)}")

    # Full test cases can be checked directly against the constraints.
    print("\nfull test cases:")
    for t in [(1, 0, 2), (2, 0, 0)]:
        labels = tuple(model.params[i].domain[v] for i, v in enumerate(t))
        print(f"  {labels} -> {'valid' if eval_constraints(model, t) else 'INVALID'}")

    # Partial test cases need a search or a compiled representation: valid
    # means "extendable to a full test case satisfying every constraint".
    # None marks an unspecified value.
    partials = [(1, 1, None), (0, None, 0), (None, None, None)]
    handlers = [build_handler(model, kind)
                for kind in ("oracle", "bdd-and", "bdd-partial-up")]
    print("\npartial test cases (all handlers must agree):")
    for assignment in partials:
        verdicts = {h.name: h.is_valid(assignment) for h in handlers}
        shown = tuple("-" if v is None else model.params[i].domain[v]
                      for i, v in enumerate(assignment))
        assert len(set(verdicts.values())) == 1
        print(f"  {shown} -> {verdicts}")

    # The traversal handler compiles its walk once, at construction: one
    # statement per constrained parameter, over jump tables kept beside
    # the function.  The source holds only positions and node numbers.
    print("\nthe bdd-partial-up walk, as compiled:")
    print(handlers[-1].source, end="")


if __name__ == "__main__":
    main()
