"""Long credit chains: provability must neither recurse per clause nor blow up."""

import io
from contextlib import redirect_stdout

from lendingnets import HornClause, cli, fact, provable_atoms

from generators import credit_ring


def credit_chain(n: int) -> list[HornClause]:
    """``x_{i+1} ->> x_i`` for i < n, closed by the fact ``x_n``."""
    chain = [HornClause(head=f"x{i}", body=frozenset({f"x{i + 1}"}), contractual=True) for i in range(n)]
    return chain + [fact(f"x{n}")]


def test_a_2000_clause_credit_chain_is_provable():
    assert provable_atoms(credit_chain(2000)) == frozenset(f"x{i}" for i in range(2001))


def test_a_16_ring_is_provable():
    ring = credit_ring(16)
    assert provable_atoms(ring.clauses) == ring.atoms()


def test_cli_decides_agreement_on_a_1200_clause_chain(tmp_path):
    n = 1200
    lines = ["participant P", *(f"owner x{i} P" for i in range(n + 1)), f"fact x{n}"]
    lines += [f"clause x{i + 1} ->> x{i}" for i in range(n)]
    lines.append("goal " + " ".join(f"x{i}" for i in range(n + 1)))
    path = tmp_path / "chain.pcl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "agreement", "--via", "logic", str(path)])
    assert (code, out.getvalue()) == (0, "agreement (logic): true\n")
