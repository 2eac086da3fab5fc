"""End-to-end checks of the command-line interface.

Everything goes through main(argv) so the exit codes and stdout/stderr
behavior are exercised exactly as a shell user would see them; one smoke
test runs the real interpreter via -m.
"""

import argparse
import ast
import contextlib
import graphlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operadyn import bianchi, cli, lax, poly, quantum
from operadyn.cli import COLUMNS, main
from operadyn.ncpoly import GENERATORS, ExtScalar, NCPoly
from operadyn.operad import Operation
from operadyn.poly import VARIABLES, Poly, as_poly
from operadyn.structure import StructureTensor, _position, _trusted
from reference_shell import reference_point_defect
from reference_trace import reference_trace, scalar_evaluate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_sympy_reads_json(capsys, which, build, commutative, letters):
    """Each value of `tables <which> --format json` is the canonical text of
    its in-process entry, and sympy reads it as that entry: `^` as `**` and
    s bound to sqrt(2*p0), at p0 = 2 (s = 2) and p0 = 3 (s irrational).
    letters(key) spells a term's key as generator names."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    names = VARIABLES if which == "deformed" else GENERATORS
    gens = dict(zip(names, sympy.symbols(names, commutative=commutative)))

    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    for p0 in (2, 3):
        s = sympy.sqrt(2 * p0)

        def to_sympy(value):
            # as test_quantum.test_basis_jacobian_matches_sympy converts
            return sum(((rational(c.u) + rational(c.v) * s if isinstance(c, ExtScalar)
                         else rational(c)) * sympy.Mul(*(gens[g] for g in letters(key)))
                        for key, c in value.terms.items()), sympy.Integer(0))

        code, out, err = run(capsys, "tables", which, "--p0", str(p0), "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["types"]) == len(bianchi.TAGS)
        for row in doc["types"]:
            a = Fraction(row["a"]) if row["a"] is not None else None
            tensor = build(bianchi.BianchiType(row["type"], a), Fraction(1), Fraction(p0))
            for cell in row["entries"]:
                entry = tensor.entry(cell["i"], cell["j"], cell["k"])
                if which == "deformed":
                    entry = as_poly(entry)  # as `tables` prints a constant entry
                assert cell["value"] == str(entry)
                got = parse_expr(cell["value"], local_dict={"s": s, **gens},
                                 transformations=(*standard_transformations, convert_xor))
                assert sympy.expand(got - to_sympy(entry)) == 0, (row["label"], p0, cell)


class TestTables:
    def test_bianchi_json_round_trip(self, capsys):
        code, out, err = run(capsys, "tables", "bianchi", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["table"] == "bianchi"
        assert [row["type"] for row in doc["types"]] == list(bianchi.TAGS)
        for row in doc["types"]:
            a = Fraction(row["a"]) if row["a"] is not None else None
            tensor = bianchi.structure_constants(bianchi.BianchiType(row["type"], a))
            assert len(row["entries"]) == 9
            for cell in row["entries"]:
                assert Fraction(cell["value"]) == tensor.entry(
                    cell["i"], cell["j"], cell["k"])

    def test_deformed_json_round_trip(self, capsys):
        # the phase-space variables commute
        _assert_sympy_reads_json(capsys, "deformed", bianchi.deform, True,
                                 lambda exps: [v for v, e in zip(VARIABLES, exps) for _ in range(e)])

    def test_quantum_json_round_trip(self, capsys):
        # the operators do not: Ap*Am and Am*Ap stay distinct
        _assert_sympy_reads_json(capsys, "quantum", quantum.quantize, False, lambda word: word)

    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "tables", "bianchi", "--type", "IX",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "type,a," + ",".join(COLUMNS)
        # column order is mu{i}_12 mu{i}_23 mu{i}_31; IX has n1=n2=n3=1
        assert lines[1] == "IX,,0,0,1,1,0,0,0,1,0"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "tables", "bianchi")
        assert code == 0
        assert "I:" in out and "(all entries zero)" in out
        assert "mu3_12 = 1" in out          # IX and VIII share this entry
        assert "VIIa(a=1/2):" in out

    def test_parametric_label_tracks_a(self, capsys):
        code, out, _ = run(capsys, "tables", "bianchi", "--a", "3/2")
        assert code == 0
        assert "VIIa(a=3/2):" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, direct, _ = run(capsys, "tables", "deformed", "--type", "VI",
                           "--format", "csv")
        target = tmp_path / "vi.csv"
        code, out, _ = run(capsys, "tables", "deformed", "--type", "VI",
                           "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == direct


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "matrix-lax")
        assert code == 0
        assert "matrix-lax: PASS" in out
        assert "overall: PASS" in out
        assert "operadic-lax" not in out

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        for name in ("matrix-lax", "operadic-lax", "jacobi-classical",
                      "jacobi-quantum"):
            assert f"{name}: PASS" in out
        assert out.rstrip().endswith("overall: PASS")

    def test_matrix_lax_catches_mutant_agreeing_at_omega(self, capsys,
                                                          monkeypatch):
        # L[0,1] = omega**2 q equals the real omega*q at the default omega 1,
        # so only the other two omegas of the proof can expose it
        real = lax.build_matrix_lax

        def mutant(q, p, omega):
            pair = real(q, p, omega)
            entries = list(pair.L.coeffs)
            entries[1] = omega * omega * q
            return lax.MatrixLaxPair(L=Operation(3, 1, entries), M=pair.M)

        monkeypatch.setattr(lax, "build_matrix_lax", mutant)
        code, out, _ = run(capsys, "verify", "matrix-lax")
        assert code == 1
        assert "matrix-lax: FAIL" in out
        assert out.rstrip().endswith("overall: FAIL")

    def test_operadic_lax_names_failing_probe(self, capsys, monkeypatch):
        real = lax._member

        def mutant(params, omega):
            # the member at the generators, as the residual writes it, plus C3*q*p in mu^1_23
            entries = dict(real(params, omega).independent_entries())
            entries[(1, 2, 3)] = entries[(1, 2, 3)] + params.c[2] * poly.q * poly.p
            return StructureTensor(entries)

        monkeypatch.setattr(lax, "_member", mutant)
        code, out, _ = run(capsys, "verify", "operadic-lax")
        assert code == 1
        assert "operadic-lax: FAIL" in out and "C3" in out
        assert out.rstrip().endswith("overall: FAIL")

    @pytest.mark.parametrize("a", ["1000000", "100000000", "1000000000000"])
    def test_jacobi_classical_large_modulus(self, capsys, a):
        # the detail names the argument, whatever the modulus
        code, out, _ = run(capsys, "verify", "jacobi-classical", "--a", a)
        assert code == 0
        assert out.splitlines()[1] == (
            "jacobi-classical: PASS  (all classes reduce to zero on shell; each defect"
            " obeys D J = M J and is zero at (0, p0, s, 0), whose orbit is the shell,"
            " so on all of it)")

    def test_jacobi_classical_catches_off_shell_points(self, capsys, monkeypatch):
        real = bianchi.ShellReduction.__init__

        def off_shell(self, omega, p0):
            # (q, p, Ap, Am) = (0, -p0, s, 0) leaves the shell, where p = Ap**2 - p0
            real(self, omega, p0)
            q, _, ap, am = self._reference
            self._reference = (q, [-self._p0], ap, am)

        monkeypatch.setattr(bianchi.ShellReduction, "__init__", off_shell)
        code, out, _ = run(capsys, "verify", "jacobi-classical")
        assert code == 1
        # VIIa is the first class whose defect is not the zero polynomial
        assert out.splitlines()[1] == ("jacobi-classical: FAIL  (defect of VIIa(a=1/2)"
                                       " is not zero at (0, p0, s, 0))")
        assert out.rstrip().endswith("overall: FAIL")

    @pytest.mark.parametrize("legs", ["both", "covariance"])
    def test_jacobi_classical_catches_bracket_mutant(self, capsys, monkeypatch, legs):
        # Q added to mu^1_23 of VIIa's operator bracket breaks Jacobi on the
        # shell; each leg alone sees it, so with the reduction blinded the
        # covariance leg still fails
        real = quantum._operator
        vii_a = bianchi.structure_constants(bianchi.BianchiType("VIIa", Fraction(1, 2)))
        vii_a = lax.solve_C(vii_a, Fraction(2))

        def mutant(params, omega):
            tensor = real(params, omega)
            if params != vii_a:
                return tensor
            # the diagonal holds NCPoly zeros, so the mirror is filled here
            flat = list(tensor.coeffs)
            value = flat[_position(1, 2, 3)] + NCPoly.generator("Q")
            flat[_position(1, 2, 3)], flat[_position(1, 3, 2)] = value, -value
            return _trusted(flat)

        monkeypatch.setattr(quantum, "_operator", mutant)
        if legs == "covariance":
            monkeypatch.setattr(bianchi.ShellReduction, "reduce", lambda self, v: Poly())
        code, out, _ = run(capsys, "verify", "jacobi-classical")
        assert code == 1
        detail = {"both": "on-shell defect of VIIa(a=1/2) is not zero: ",
                  "covariance": "defect of VIIa(a=1/2) does not obey D J = M J)"}[legs]
        assert out.splitlines()[1].startswith("jacobi-classical: FAIL  (" + detail)
        assert out.rstrip().endswith("overall: FAIL")

    def test_jacobi_classical_catches_image_mutant(self, capsys, monkeypatch):
        # an image that counts Am as Ap is no ring map onto the commutative
        # defect, and both proofs read the image
        def mutant(word):
            return (word.count("Q"), word.count("P"), word.count("Ap") + word.count("Am"), 0)

        monkeypatch.setattr(poly, "_exps", mutant)
        code, out, _ = run(capsys, "verify", "jacobi-classical")
        assert code == 1
        assert out.splitlines()[1].startswith("jacobi-classical: FAIL  (on-shell defect of ")
        assert out.rstrip().endswith("overall: FAIL")

    @pytest.mark.parametrize("tag, change, detail", [
        ("II", {"kind": quantum.RIGID}, "II classified Rigid, expected QuantumLie"),
        ("VIIa", {"tau": 1}, "VIIa(a=1/2) has tau=1, expected -1"),
    ])
    def test_jacobi_quantum_names_a_wrong_certificate(self, capsys, monkeypatch, tag, change,
                                                      detail):
        # one class's certificate in the wrong bucket, or in the right one with tau = 1
        real = quantum.classify

        def mutant(t, omega, p0):
            cert = real(t, omega, p0)
            return cert._replace(**change) if t.tag == tag else cert

        monkeypatch.setattr(quantum, "classify", mutant)
        code, out, _ = run(capsys, "verify", "jacobi-quantum")
        assert code == 1
        assert out.splitlines()[1] == f"jacobi-quantum: FAIL  ({detail})"
        assert out.rstrip().endswith("overall: FAIL")

    @pytest.mark.parametrize("p0, s", [
        (Fraction(2), Fraction(2)),
        (Fraction(3), ExtScalar(0, 1, p0=3)),     # irrational sigma: s stays formal
    ])
    def test_shell_points_follow_the_degree(self, p0, s):
        # Am/(Ap + s) = u at the shell point u, so f vanishes at u = 0..6 and
        # not at 7: a fixed grid of seven points would miss it, while its
        # degree 7 on the conic takes the point oracle to 15 points
        ap, am = Poly.variable("Ap"), Poly.variable("Am")
        f = Poly.constant(1)
        for k in range(7):
            f = f * (am - k * (ap + s))
        # the point u is q, p, Ap, Am = 2*p0*a*b/d**2, p0*(a**2 - b**2)/d**2, s*a/d, s*b/d
        # with a = 1 - u**2, b = 2u and d = 1 + u**2
        values = [scalar_evaluate(f.terms.items(), (Fraction(2 * p0 * a * b, d * d),
                                                    p0 * Fraction(a * a - b * b, d * d),
                                                    s * Fraction(a, d), s * Fraction(b, d)))
                  for a, b, d in ((1 - u * u, 2 * u, 1 + u * u) for u in range(8))]
        assert [bool(v) for v in values] == [False] * 7 + [True]
        assert reference_point_defect([("f", f)], 1, p0) == (7, "f")
        # zero on the conic, though not as a polynomial
        shell = ap * ap + am * am - 2 * p0
        assert reference_point_defect([("0", Poly()), ("shell", shell)], 1, p0) == (2, None)

    def test_verify_path_holds_no_floats(self):
        def names(code):
            out = set(code.co_names)
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    out |= names(const)
            return out

        shell = bianchi.ShellReduction
        for fn in (cli._run_verify, lax.prove_matrix_lax, lax.prove_operadic_lax,
                   shell.prove_jacobi, shell.__init__, shell.covariant,
                   lax._time_derivative, poly.evaluate_terms, quantum.prove_kinds):
            assert not names(fn.__code__) & {"float", "math", "_positive_float"}, fn
        assert not hasattr(cli, "sample_flow")

    def test_verify_all_builds_each_deformation_once(self, capsys, monkeypatch):
        # jacobi-classical and jacobi-quantum share one operator bracket per
        # class instead of building it through deform and quantize each
        real = quantum._operator
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(quantum, "_operator", counted)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0 and out.rstrip().endswith("overall: PASS")
        assert len(calls) == len(bianchi.TAGS) == 11
        assert len(set(calls)) == 11

    def test_verify_all_builds_each_operator_defect_once(self, capsys, monkeypatch):
        # both Jacobi suites read one operator defect per class: jacobi-quantum
        # classifies it, and jacobi-classical proves its commutative image
        # zero on shell, so no commutative defect is built
        real = quantum.basis_jacobian
        calls = []

        def counted(mu):
            calls.append(mu)
            return real(mu)

        monkeypatch.setattr(quantum, "basis_jacobian", counted)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0 and out.rstrip().endswith("overall: PASS")
        assert len(calls) == len(bianchi.TAGS) == 11

    def test_verify_all_takes_the_cyclic_kernel_only(self, capsys, monkeypatch):
        # the basis defects come from the weight-free cyclic kernel, one call
        # per class on the operator side and none on the commutative side,
        # and the text is the same; the general weighted defect is a test
        # oracle, not part of the package
        assert not hasattr(quantum, "quantum_jacobian")
        _, plain, _ = run(capsys, "verify", "all")
        calls = {"basis_jacobian": 0, "raw_jacobian": 0}
        for module, name in ((quantum, "basis_jacobian"), (bianchi, "raw_jacobian")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0 and out == plain
        assert calls == {"basis_jacobian": 11, "raw_jacobian": 0}
        assert out.splitlines()[4] == (
            "jacobi-quantum: PASS  (I=Rigid; II=QuantumLie; VII=Rigid; VI=QuantumLie;"
            " IX=Rigid; VIII=Rigid; V=AnomalousI; IV=AnomalousI;"
            " VIIa(a=1/2)=AnomalousII tau=-1; IIIa1=AnomalousII tau=-1;"
            " VIa(a=1/2)=AnomalousII tau=-1)")


class TestTrace:
    @pytest.mark.parametrize("flags, omega, p0, a", [
        ((), Fraction(1), Fraction(2), Fraction(1, 2)),
        (("--p0", "3"), Fraction(1), Fraction(3), Fraction(1, 2)),   # irrational sigma
        (("--omega", "2/3", "--p0", "5/7", "--a", "3"),
         Fraction(2, 3), Fraction(5, 7), Fraction(3)),
    ])
    @pytest.mark.parametrize("samples", [1, 300])
    def test_matches_row_renderer(self, capsys, flags, omega, p0, a, samples):
        for tag in bianchi.TAGS:
            code, out, err = run(capsys, "trace", tag, "--t-samples", str(samples), *flags)
            assert code == 0 and err == ""
            assert out == reference_trace(tag, omega, p0, a, samples), tag

    def test_header_and_start_row(self, capsys):
        code, out, _ = run(capsys, "trace", "V", "--t-samples", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,q,p,Ap,Am," + ",".join(COLUMNS)
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert row0[0] == "0.0"
        named = dict(zip(lines[0].split(","), row0))
        # at t=0 the deformation sits on the constant class tensor: the
        # Am-proportional entries vanish and the Ap ones hit +-1
        assert named["mu2_12"] == "-1.0"
        assert named["mu3_31"] == "1.0"
        assert named["mu1_12"] == "0.0"
        assert named["mu3_23"] == "0.0"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "trace", "VIIa", "--t-samples", "7")
        _, second, _ = run(capsys, "trace", "VIIa", "--t-samples", "7")
        assert first == second


class TestUsageErrors:
    def test_unknown_tag(self, capsys):
        code, _, err = run(capsys, "tables", "bianchi", "--type", "X")
        assert code == 2 and "unknown type tag" in err
        # the tag is checked before the sample count
        code, _, err = run(capsys, "trace", "X", "--t-samples", "0")
        assert code == 2 and "unknown type tag" in err

    def test_irrational_sigma(self, capsys):
        # not a usage error: sqrt(6) stays the formal s
        code, out, err = run(capsys, "tables", "deformed", "--p0", "3")
        assert code == 0 and err == ""
        assert "mu1_12 = (1/6*s)*Am" in out

    def test_unwritable_out(self, capsys, tmp_path):
        code, out, err = run(capsys, "tables", "bianchi",
                             "--out", str(tmp_path / "missing" / "x"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_modulus_one_listing(self, capsys):
        code, _, err = run(capsys, "tables", "bianchi", "--a", "1")
        assert code == 2 and "VIa" in err

    def test_nonpositive_parameters(self, capsys):
        assert run(capsys, "tables", "bianchi", "--omega", "0")[0] == 2
        assert run(capsys, "tables", "bianchi", "--p0", "-2")[0] == 2

    def test_bad_sample_count(self, capsys):
        code, _, err = run(capsys, "trace", "II", "--t-samples", "0")
        assert code == 2 and "t-samples" in err

    @pytest.mark.parametrize("argv", [
        ("trace", "II", "--p0", "1e400"),
        ("trace", "II", "--omega", "1e400"),
        ("verify", "jacobi-classical", "--p0", "1e400"),
        ("trace", "II", "--omega", "1e-400"),
        ("verify", "jacobi-classical", "--omega", "1e-400"),
        # finite, but the square of the flag overflows or underflows
        ("verify", "jacobi-classical", "--p0", "1e200"),
        ("verify", "jacobi-classical", "--p0", "1e-200"),
        ("trace", "II", "--omega", "1e300"),
        ("trace", "II", "--omega", "1e-200"),
        # the modulus enters the floats of trace for the parametric classes
        ("trace", "VIIa", "--a", "1e400"),
        ("verify", "all", "--a", "1e400"),
        ("verify", "jacobi-classical", "--a", "1e-400"),
        ("trace", "VIa", "--a", "1e200"),
        ("verify", "all", "--a", "1e-200"),
        ("verify", "all", "--p0", "1e400"),
    ])
    def test_flag_outside_float_range(self, capsys, argv):
        # trace needs a positive float whose square is a normal float; verify
        # and the tables are exact and take any positive rational
        code, out, err = run(capsys, *argv)
        if argv[0] == "trace":
            assert code == 2 and out == ""
            assert err.startswith(f"error: {argv[2]} ")
        else:
            assert code == 0 and err == "" and out.endswith("overall: PASS\n")
        assert run(capsys, "tables", "deformed", "--type", "II", *argv[2:])[0] == 0

    @pytest.mark.parametrize("argv", [
        ("trace", "II", "--a", "1e400", "--t-samples", "3"),
        ("trace", "IIIa1", "--a", "1e400", "--t-samples", "3"),
        ("verify", "operadic-lax", "--a", "1e400"),
    ])
    def test_modulus_range_only_where_it_enters_floats(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("argv, value", [
        # an ExtScalar coefficient too large for a float (it raised OverflowError)
        (("verify", "jacobi-classical", "--a", "1e150", "--p0", "1e-150"), "inf"),
        (("verify", "all", "--a", "1e150", "--p0", "1e-150"), "inf"),
        # a nonzero coefficient that underflows to 0.0
        (("verify", "jacobi-classical", "--omega", "1e-150", "--p0", "1e150"), "0.0"),
        # a coefficient whose s-part -5e-317 is subnormal; its float is
        # -7.0710678118654752e-257 rounded once (it used to keep few digits,
        # -7.071068045679377e-257)
        (("verify", "jacobi-classical", "--omega", "1e-153", "--p0", "1e120", "--a", "1e77"),
         "-7.071067811865475e-257"),
    ])
    def test_float_leg_coefficient_outside_float_range(self, capsys, argv, value):
        # each flag is inside the float range, and a Jacobi coefficient of VIIa
        # has the float value; verify is exact and passes all the same
        flags = dict(zip(argv[2::2], map(Fraction, argv[3::2])))
        omega, p0 = flags.get("--omega", Fraction(1)), flags.get("--p0", Fraction(2))
        t = bianchi.BianchiType("VIIa", flags.get("--a", Fraction(1, 2)))
        floats = set()
        for component in bianchi.raw_jacobian(bianchi.deform(t, omega, p0)):
            for c in component.terms.values():
                try:
                    floats.add(float(c))
                except OverflowError:
                    floats.add(float("inf"))
        assert float(value) in floats
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.endswith("overall: PASS\n") and "jacobi-classical: PASS" in out

    def test_modulus_reported_with_p0_outside_float_range(self, capsys):
        # verify takes any positive p0, so only the modulus is at fault
        code, out, err = run(capsys, "verify", "all", "--a", "1", "--p0", "1e400")
        assert code == 2 and out == ""
        assert err.startswith("error: --a 1 is not valid when listing all classes")

    def test_bad_fraction_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "bianchi", "--omega", "fast"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# a flag value: m * 10**e across the float range and beyond, a small
# fraction (0 and negative values included), or 1
_FLAG_VALUES = st.one_of(
    st.builds("{}e{}".format, st.integers(-2, 30), st.integers(-400, 400)),
    st.builds("{}/{}".format, st.integers(-3, 12), st.integers(1, 8)),
    st.just("1"),
)


@st.composite
def _commands(draw):
    """A `tables`, `verify` or `trace` command line with drawn flags."""
    kind = draw(st.sampled_from(("tables", "verify", "trace")))
    if kind == "tables":
        argv = ["tables", draw(st.sampled_from(("bianchi", "deformed", "quantum"))),
                "--format", draw(st.sampled_from(("text", "json", "csv")))]
        tag = draw(st.none() | st.sampled_from(bianchi.TAGS))
        argv += ["--type", tag] if tag else []
    elif kind == "verify":
        argv = ["verify", draw(st.sampled_from((*cli._VERIFY_SUITES, "all")))]
    else:
        argv = ["trace", draw(st.sampled_from(bianchi.TAGS)),
                "--t-samples", str(draw(st.integers(1, 3)))]
    for flag in ("--omega", "--p0", "--a"):
        value = draw(st.none() | _FLAG_VALUES)
        # `--flag=value`, as argparse reads "-2e5" after a space as an option
        argv += [f"{flag}={value}"] if value else []
    return tuple(argv)


class TestContractFuzz:
    """The exit-code contract of `main` on drawn commands and flags."""

    @settings(max_examples=200, deadline=None)
    @given(_commands())
    # the error and extreme-flag commands of tools/cli_diff.py
    @example(("trace", "VIIa", "--t-samples", "0"))
    @example(("trace", "VIIa", "--omega", "1e300"))
    @example(("trace", "VIIa", "--p0", "1e200"))
    @example(("trace", "X"))
    @example(("tables", "bianchi", "--omega", "0"))
    @example(("tables", "bianchi", "--p0", "-2"))
    @example(("tables", "bianchi", "--a", "0"))
    @example(("verify", "all", "--a", "1"))
    @example(("verify", "jacobi-classical", "--a", "1e150", "--p0", "1e-150"))
    @example(("verify", "all", "--a", "1e150", "--p0", "1e-150"))
    @example(("verify", "jacobi-classical", "--omega", "1e-150", "--p0", "1e150"))
    @example(("verify", "jacobi-classical", "--omega", "1e-153", "--p0", "1e120", "--a", "1e77"))
    @example(("verify", "all", "--p0", "1e400"))
    def test_exit_codes_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            return
        assert err == ""
        if argv[0] == "verify":
            # exact verification passes at every positive rational flag
            assert code == 0 and out.endswith("overall: PASS\n")
        elif argv[0] == "tables":
            assert code == 0
            if argv[3] == "json":
                json.loads(out)
        else:
            assert code == 0
            header, *rows = out.splitlines()
            assert header == ",".join(["t", "q", "p", "Ap", "Am", *COLUMNS])
            samples = int(argv[argv.index("--t-samples") + 1]) if "--t-samples" in argv else 100
            assert len(rows) == samples
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# mixed commands whose flags and defaults differ from one to the next
_SEQUENCE = (
    ("tables", "deformed", "--type", "VIIa", "--a", "2", "--format", "json"),
    ("tables", "bianchi"),
    ("verify", "jacobi-quantum", "--omega", "3/2", "--p0", "3"),
    ("verify", "all"),
    ("trace", "VIa", "--t-samples", "4", "--a", "1/3"),
    ("tables", "quantum", "--format", "csv"),
    ("tables", "bianchi", "--omega", "fast"),
    ("tables", "bianchi", "--type", "X"),
    ("--help",),
    ("verify", "operadic-lax", "--help"),
    ("trace", "II", "--t-samples", "3"),
)


class TestParserReuse:
    """One argparse parser per process, with no state carried between calls."""

    def test_built_once_across_calls(self, capsys, monkeypatch):
        # count the parsers constructed: the program's and its three subcommands'
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for argv in (["tables", "bianchi"], ["verify", "matrix-lax"],
                     ["trace", "II", "--t-samples", "3"], ["verify", "all", "--p0", "3"]):
            assert main(argv) == 0
        assert built.count("operadyn") == 1 and len(built) == 4

    def test_sequence_matches_each_command_alone(self, capsys, monkeypatch):
        # the help text wraps at the terminal width, so fix it
        monkeypatch.setenv("COLUMNS", "80")
        alone = []
        for argv in _SEQUENCE:
            cli._build_parser.cache_clear()
            alone.append(_outcome(capsys, argv))
        assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0]
        for order in (_SEQUENCE, _SEQUENCE[::-1]):
            cli._build_parser.cache_clear()
            got = [_outcome(capsys, argv) for argv in order]
            assert got == (alone if order is _SEQUENCE else alone[::-1])


def _python(code):
    """Run code in a fresh interpreter with this checkout's src/ first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_numpy_stays_out():
    # the CLI and both float paths run on the standard library alone
    proc = _python("import contextlib, io, sys\n"
                   "import operadyn.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    assert operadyn.cli.main(['verify', 'all']) == 0\n"
                   "    assert operadyn.cli.main(['trace', 'II']) == 0\n"
                   "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_dataclass_or_table_format_modules():
    # the records are namedtuples, and json/csv load only for the table
    # formats that write them; a mechanism check, with no clock in it
    proc = _python("import sys\n"
                   "before = set(sys.modules)\n"
                   "import operadyn.cli\n"
                   "new = set(sys.modules) - before\n"
                   "print(sorted(new & {'dataclasses', 'inspect', 'json', 'csv'}))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_imports_sit_at_module_level_and_form_no_cycle():
    # every module imports its package siblings at the top, and the import
    # graph has an order in which each module comes after what it imports
    package = Path(cli.__file__).resolve().parent
    modules = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    graph, nested = {}, []
    for name, tree in modules.items():
        graph[name] = set()
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = ("operadyn." * bool(node.level) + (node.module or "")).rstrip(".")
                dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            else:
                continue
            targets = {n.split(".")[1] for n in dotted if n.startswith("operadyn.")} & set(modules)
            if targets and id(node) in inside:
                nested.append(f"{name}.py:{node.lineno}")
            graph[name] |= targets
    assert nested == []
    order = list(graphlib.TopologicalSorter(graph).static_order())   # CycleError on a cycle
    assert sorted(order) == sorted(modules)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "operadyn.cli", "tables", "bianchi",
         "--type", "I", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "I,,0,0,0,0,0,0,0,0,0"


def test_console_script_entry_point(capsys):
    # the `[project.scripts]` target that `pip install` turns into `operadyn`
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["operadyn"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.main
    assert entry(["verify", "matrix-lax"]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")
