from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

from equibundle import serialize
from equibundle.bundle import TransitionCocycle
from equibundle.cli import main
from equibundle.equivariant import CanonicalEntry, CanonicalForm, build_from_canonical
from equibundle.matgroup import catalog, standard_representation, trivial_representation
from equibundle.plant import random_canonical_form
from equibundle.ratfun import RatFun, RatMat
from equibundle.cyclotomic import CycNum


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_command(tmp_path, capsys):
    out = tmp_path / "group.json"
    code, report = run_cli(
        capsys, "catalog", "--family", "binary_dihedral", "--n", "3",
        "--output", str(out),
    )
    assert code == 0
    assert report["order"] == 12
    assert report["conjugacy_classes"] == 6
    assert out.exists()
    saved = json.loads(out.read_text())
    assert saved["group"]["modulus"] == 12


def test_catalog_modulus_override(capsys):
    code, report = run_cli(
        capsys, "catalog", "--family", "cyclic", "--n", "4", "--modulus-override", "12"
    )
    assert code == 0
    assert (report["order"], report["required_modulus"], report["modulus"]) == (4, 4, 12)
    assert report["group"]["modulus"] == 12
    code, report = run_cli(
        capsys, "catalog", "--family", "cyclic", "--n", "4", "--modulus-override", "7"
    )
    assert code == 2
    assert report == {
        "error": "malformed_input",
        "detail": "override modulus 7 is not a multiple of 4",
    }


def test_split_command(tmp_path, capsys):
    n = 12
    one = CycNum.one(n)
    cocycle = RatMat.diag([RatFun.monomial(one, 3), RatFun.monomial(one, -1)])
    path = tmp_path / "cocycle.json"
    path.write_text(serialize.dumps(serialize.cocycle_to_json(TransitionCocycle(2, cocycle))))
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert code == 0
    assert report["splitting_type"] == [3, -1]
    assert report["residual_zero"] is True


def test_split_forms_the_factor_product_once(tmp_path, capsys, monkeypatch):
    # birkhoff_factor checks U+ D U- = T once; the report reads that result.
    from equibundle.bundle import BirkhoffFactorization
    from equibundle.plant import planted_cocycle

    cocycle, _, _ = planted_cocycle(random.Random(5), 12, [2, 0, -1])
    path = tmp_path / "cocycle.json"
    path.write_text(serialize.dumps(serialize.cocycle_to_json(cocycle)))
    calls = []
    original = BirkhoffFactorization.product

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(BirkhoffFactorization, "product", counting)
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert code == 0
    assert report["splitting_type"] == [2, 0, -1]
    assert report["residual_zero"] is True
    assert len(calls) == 1


def test_split_rejects_non_cocycle(tmp_path, capsys):
    n = 12
    bad = {
        "rank": 1,
        "modulus": n,
        "transition": serialize.ratmat_to_json(
            RatMat([[RatFun.from_poly(__import__("equibundle.ratfun", fromlist=["Poly"]).Poly.from_ints(n, [1, 1]))]])
        ),
    }
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(bad))
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert code == 1
    assert report["error"] == "mathematical_rejection"


def test_split_certificate_revalidates_from_report(tmp_path, capsys):
    # A third party can re-multiply the emitted factors and compare against
    # the input transition without trusting the tool.
    rng = random.Random(77)
    from equibundle.plant import planted_cocycle
    from equibundle.ratfun import RatFun as RF

    cocycle, _, _ = planted_cocycle(rng, 12, [2, 0, -1])
    path = tmp_path / "cocycle.json"
    path.write_text(serialize.dumps(serialize.cocycle_to_json(cocycle)))
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert code == 0
    fact = report["factorization"]
    u_plus = serialize.ratmat_from_json(12, fact["u_plus"])
    u_minus = serialize.ratmat_from_json(12, fact["u_minus"])
    diag = RatMat.diag([RF.monomial(CycNum.one(12), d) for d in fact["degrees"]])
    assert u_plus * diag * u_minus == cocycle.transition


def test_classify_command(tmp_path, capsys):
    rng = random.Random(12)
    g = catalog("cyclic", 4).group()
    cf = random_canonical_form(rng, g, max_entries=2, max_dim=2)
    bundle = build_from_canonical(cf, g)
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(serialize.bundle_to_json(bundle)))
    code, report = run_cli(capsys, "classify", "--input", str(path))
    assert code == 0
    assert report["degrees"] == list(cf.degrees())
    assert report["certificates"]["factorization_residual_zero"] is True
    # The emitted canonical form re-parses and matches.
    back = serialize.canonical_form_from_json(report["canonical_form"])
    assert back.equal_up_to_iso(cf)


def test_ext_split_command(tmp_path, capsys):
    from equibundle.extensions import pgl_group
    from equibundle.matgroup import SL2Elem

    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    path = tmp_path / "h.json"
    path.write_text(serialize.dumps(serialize.group_to_json(h)))
    code, report = run_cli(capsys, "ext-split", "--input", str(path))
    assert code == 0
    assert report["splits"] is False
    assert report["gamma"] is None
    assert report["preimage_order"] == 4


def test_iso_command(tmp_path, capsys):
    rng = random.Random(31)
    g = catalog("cyclic", 3).group()
    cf = random_canonical_form(rng, g, max_entries=1, max_dim=2)
    b1 = build_from_canonical(cf, g)
    from equibundle.plant import conjugated_modules, random_retrivialization

    b2 = random_retrivialization(rng, build_from_canonical(conjugated_modules(rng, cf), g))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(serialize.dumps(serialize.bundle_to_json(b1)))
    p2.write_text(serialize.dumps(serialize.bundle_to_json(b2)))
    code, report = run_cli(capsys, "iso", "--input-a", str(p1), "--input-b", str(p2))
    assert code == 0
    assert report["isomorphic"] is True


def test_sections_command(tmp_path, capsys):
    g = catalog("cyclic", 3).group()
    cf = CanonicalForm([CanonicalEntry(1, trivial_representation(g))])
    path = tmp_path / "cf.json"
    path.write_text(serialize.dumps(serialize.canonical_form_to_json(cf)))
    code, report = run_cli(capsys, "sections", "--input", str(path))
    assert code == 0
    assert report["dimension"] == 2


@pytest.mark.parametrize("order", [2, 4])
def test_sections_rejects_a_module_over_another_group(tmp_path, order):
    # The acting group is the first plain entry's; the second module lives
    # over a cyclic group of the same modulus, with other elements.
    bd2 = catalog("binary_dihedral", 2).group()
    cyclic = catalog("cyclic", order).group(modulus=4)
    cf = CanonicalForm(
        [
            CanonicalEntry(1, standard_representation(bd2)),
            CanonicalEntry(0, trivial_representation(cyclic)),
        ]
    )
    path = tmp_path / "cf.json"
    path.write_text(serialize.dumps(serialize.canonical_form_to_json(cf)))
    fresh = subprocess.run(
        [sys.executable, "-m", "equibundle.cli", "sections", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert fresh.returncode == 2, fresh.stderr
    assert json.loads(fresh.stdout)["error"] == "malformed_input"
    assert "Traceback" not in fresh.stderr


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert code == 2
    assert report["error"] == "malformed_input"
    # A zero denominator inside an otherwise well-formed cocycle file;
    # run_cli parses the whole of stdout, so it must be one JSON object.
    good = serialize.cocycle_to_json(TransitionCocycle(1, RatMat([[RatFun.one(4)]])))
    zero_den = json.loads(json.dumps(good))
    zero_den["transition"][0][0]["num"][0]["coeffs"][0] = ["1", "0"]
    bad_modulus = dict(good, modulus="x")
    no_modulus = {k: v for k, v in good.items() if k != "modulus"}
    int_row = dict(good, transition=[5, 6])
    zero_den_poly = json.loads(json.dumps(good))
    zero_den_poly["transition"][0][0]["den"] = []
    # Coefficients follow the integer-field rule: a JSON float or boolean is
    # refused, not truncated by int().
    float_num = json.loads(json.dumps(good))
    float_num["transition"][0][0]["num"][0]["coeffs"][0] = [1.5, "1"]
    bool_num = json.loads(json.dumps(good))
    bool_num["transition"][0][0]["num"][0]["coeffs"][0] = [True, "1"]
    for data in (zero_den, bad_modulus, no_modulus, int_row, zero_den_poly, float_num, bool_num):
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "split", "--input", str(path))
        assert code == 2
        assert report["error"] == "malformed_input"
    # Group files: generators must be a list and pgl a JSON boolean.
    group = serialize.group_to_json(catalog("cyclic", 4).group())
    for data in (dict(group, generators=5), dict(group, pgl="yes")):
        path.write_text(serialize.dumps(data))
        code, report = run_cli(capsys, "ext-split", "--input", str(path))
        assert code == 2
        assert report["error"] == "malformed_input"
    # Bundle files: action must be an object.
    g = catalog("cyclic", 4).group()
    cf = random_canonical_form(random.Random(0), g, max_entries=1, max_dim=1)
    bundle = serialize.bundle_to_json(build_from_canonical(cf, g))
    for data in (dict(bundle, action=5), dict(bundle, action="0")):
        path.write_text(serialize.dumps(data))
        code, report = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert report["error"] == "malformed_input"
    # Canonical-form files: entries must be a list, generator_images a list of matrices.
    cf = serialize.canonical_form_to_json(cf)
    bad_cfs = [dict(cf, entries=5)]
    for images in (5, [5], [[5]]):
        bad = json.loads(json.dumps(cf))
        bad["entries"][0]["module"]["generator_images"] = images
        bad_cfs.append(bad)
    for data in bad_cfs:
        path.write_text(serialize.dumps(data))
        code, report = run_cli(capsys, "sections", "--input", str(path))
        assert code == 2
        assert report["error"] == "malformed_input"


def test_huge_modulus_rejected_before_factoring(tmp_path, capsys):
    # A scalar lists phi(n) >= sqrt(n / 2) coefficients, so a Mersenne-prime
    # modulus with two coefficients is refused at once, not trial-divided.
    def with_modulus(obj, n):
        if isinstance(obj, dict):
            return {k: n if k == "modulus" else with_modulus(v, n) for k, v in obj.items()}
        if isinstance(obj, list):
            return [with_modulus(v, n) for v in obj]
        return obj

    good = serialize.cocycle_to_json(TransitionCocycle(1, RatMat([[RatFun.one(4)]])))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(with_modulus(good, str(2**61 - 1))))
    fresh = subprocess.run(
        [sys.executable, "-m", "equibundle.cli", "split", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert fresh.returncode == 2
    assert json.loads(fresh.stdout)["error"] == "malformed_input"
    assert "Traceback" not in fresh.stderr
    start = time.perf_counter()
    code, report = run_cli(capsys, "split", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"] == "malformed_input"
    assert "Traceback" not in capsys.readouterr().err


def test_main_calls_share_one_parser(tmp_path, capsys):
    # The parser is built once per process; no parsed option may carry over
    # from one call to the next.
    code, report = run_cli(capsys, "--max-order", "2", "catalog", "--family", "binary_icosahedral")
    assert code == 1
    assert report["error"] == "mathematical_rejection"
    code, report = run_cli(capsys, "catalog", "--family", "binary_icosahedral")
    assert code == 0
    assert report["order"] == 120
    rng = random.Random(19)
    from equibundle.plant import planted_cocycle

    cocycle, _, _ = planted_cocycle(rng, 12, [1, -2])
    path = tmp_path / "cocycle.json"
    path.write_text(serialize.dumps(serialize.cocycle_to_json(cocycle)))
    assert main(["split", "--input", str(path)]) == 0
    in_process = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "equibundle.cli", "split", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert in_process == fresh.stdout


def test_verify_determinism_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _ = run_cli(
        capsys, "verify", "--suite", "sections", "--seed", "5", "--cases", "4",
        "--output", str(out1),
    )
    code2, _ = run_cli(
        capsys, "verify", "--suite", "sections", "--seed", "5", "--cases", "4",
        "--output", str(out2),
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "equibundle.cli", "verify", "--suite", "birkhoff",
         "--seed", "3", "--cases", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["pass"] is True
