"""Mutation gate: tier-1 must fail on every one-line mutant of a check.

    python3 tools/mutants.py

Each mutant in MUTANTS loosens or removes one check of the tantheta
package: a tolerance of the table in errors.py widened, a verdict diluted,
a stage skipped. The tool copies this checkout (without .git and caches) to
a temporary directory once and checks that tier-1 passes there unmutated.
Then, for each mutant, it replaces the old text, which must occur exactly
once in its file, runs tier-1 with -x and restores the file. A mutant is
killed when tier-1 fails; the first failing test is printed beside it.
The mutant runs leave out the test that the README's tolerance table lists
each value of errors.py: it fails for every mutant of that table whether or
not any check has teeth.

Exit code 0 when every mutant is killed, 1 when one survives, and 2 when the
copy cannot be tested: tier-1 fails unmutated, the copy's package is not the
one imported, or an old text is not found exactly once.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# (file, old text, new text, reason): the twenty mutants of the first
# mutation analysis of the checks, then later ones, so that every tolerance
# of the table in errors.py has at least one, and so has each raise that no
# test reached before tools/linecov.py listed it.
MUTANTS = (
    ("src/tantheta/spectral.py", "dist = float(s[0])", "dist = float(s[-1])",
     "the distance read from the smallest principal angle"),
    ("src/tantheta/spectral.py", "d = min(lo0 - gamma_l", "d = max(lo0 - gamma_l",
     "d taken as the larger distance to the gap edges"),
    ("src/tantheta/riccati.py", "if j - i > 1:", "if False:",
     "no audit of degenerate singular clusters on their span"),
    ("src/tantheta/riccati.py", "table = _pair_residuals(s_full, P, Q, Lam0, _column_dots)",
     "table = np.zeros((3, dim0))", "the audit skips its base eigenpairs"),
    ("src/tantheta/spectral.py", "collar = es.residual + block.A1.eig.residual",
     "collar = 1e-6 * (1.0 + es.norm)", "gap-edge collar widened past the certified errors"),
    ("src/tantheta/spectral.py", "collar = es.residual + block.A1.eig.residual",
     "collar = es.residual", "the gap edges' own certified error left out of the collar"),
    ("src/tantheta/errors.py", "EIG_RESIDUAL_TOL = 1e-10", "EIG_RESIDUAL_TOL = 1e-4",
     "eigensystem residual cap loosened a millionfold"),
    ("src/tantheta/errors.py", "EIG_GRAM_TOL = 1e-8", "EIG_GRAM_TOL = 1e-2",
     "supplied eigenbasis Gram defect cap loosened a millionfold"),
    ("src/tantheta/errors.py", "BOUNDARY_BAND = 1e-9", "BOUNDARY_BAND = 1e-15",
     "boundary band at round-off: an eigenvalue just inside a gap edge is no boundary hit"),
    ("src/tantheta/errors.py", "EXTRACTION_COND_CAP = 1e12", "EXTRACTION_COND_CAP = 1e300",
     "top block condition cap loosened to any finite condition number"),
    ("src/tantheta/spectral.py", "if v >= math.sqrt(disp.d * disp.D):", "if False:",
     "no partition gate at ||B|| >= sqrt(d D)"),
    ("src/tantheta/errors.py", "FIXED_POINT_TOL = 1e-13", "FIXED_POINT_TOL = 1e-7",
     "fixed-point step tolerance loosened a millionfold"),
    ("src/tantheta/errors.py", "MARGIN_FAILURE_THRESHOLD = -1e-8",
     "MARGIN_FAILURE_THRESHOLD = -1e-3", "the verdict: margins down to -1e-3 pass"),
    ("src/tantheta/errors.py", "RESIDUAL_REL_TOL = 1e-8", "RESIDUAL_REL_TOL = 1e-2",
     "Riccati residual and Lambda0 asymmetry caps loosened a millionfold"),
    ("src/tantheta/riccati.py", '    require("Lambda0 asymmetry"',
     '    0 and require("Lambda0 asymmetry"', "no Lambda0 asymmetry check"),
    ("src/tantheta/riccati.py", "(1.0 + abs(lhs) + abs(rhs))", "(1e6 + abs(lhs) + abs(rhs))",
     "identity residual normaliser dilutes every residual a millionfold"),
    ("src/tantheta/harness.py", "cross = spectral_norm(fp - ver.angular.X)", "cross = 0.0",
     "cross_method_deviation always 0.0"),
    ("src/tantheta/errors.py", "ASYMMETRY_TOL = 1e-12", "ASYMMETRY_TOL = 1e-6",
     "input block asymmetry cap loosened a millionfold"),
    ("src/tantheta/errors.py", "KERNEL_CUTOFF = 1e-12", "KERNEL_CUTOFF = 1e-3",
     "kernel cutoff of X raised a billionfold"),
    ("src/tantheta/errors.py", "BOUNDARY_CLASSIFY_TOL = 1e-9", "BOUNDARY_CLASSIFY_TOL = 1e-3",
     "region boundary band widened a millionfold"),
    ("src/tantheta/errors.py", "PROJECTOR_DISTANCE_SLACK = 1e-9",
     "PROJECTOR_DISTANCE_SLACK = 1.0", "projector distances up to 2 pass"),
    ("src/tantheta/spectral.py", "gram_defect, EIG_GRAM_TOL, NotAProjector)",
     "gram_defect, 1.0, NotAProjector)", "range basis Gram defect cap raised to 1"),
    ("src/tantheta/model.py", "if not (values[1:] >= values[:-1]).all():", "if False:",
     "a supplied spectrum need not ascend"),
    ("src/tantheta/model.py", "EigenSystem.of(sym, spectrum)", "EigenSystem.of(sym)",
     "a generated block's known spectrum recomputed by eigh"),
    ("src/tantheta/errors.py", "DEGENERACY_TOL = 1e-8", "DEGENERACY_TOL = 0.0",
     "only exactly tied singular values form an audited cluster"),
    ("src/tantheta/errors.py", "RADICAND_GUARD = 1e-12", "RADICAND_GUARD = 1e-3",
     "domain-edge round-off guard of the bounds loosened a billionfold"),
    ("src/tantheta/model.py", "if not np.isfinite(values).all():", "if False:",
     "non-finite eigenvalues not rejected before the residual"),
    ("src/tantheta/model.py", "unit = norm or 1.0", "unit = 1.0",
     "eigensystem residual summed unscaled, overflowing near the float range"),
    ("src/tantheta/spectral.py", "if partition.basis.shape != (block.n, block.dim0):", "if False:",
     "a partition of another block's shape measured against this block"),
    ("src/tantheta/riccati.py", "if not (math.isfinite(step) and math.isfinite(x_norm)):",
     "if False:", "a diverged fixed-point iteration counted as converged"),
    ("src/tantheta/bounds.py", 'raise DomainError("D must be positive")', "pass",
     "a non-positive gap length classified as outside Omega"),
    ("src/tantheta/bounds.py", 'raise DomainError("v must be non-negative")', "pass",
     "a negative coupling norm classified and bounded"),
    ("src/tantheta/bounds.py", 'raise DomainError(f"d must be positive, got {d}")', "pass",
     "the a priori estimate takes d = 0"),
    ("src/tantheta/bounds.py",
     'g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")\n'
     "    back = 2.0 ** -unit_exponent(gamma)  #",
     "g, a_u, b_u = gamma, a, b\n    back = 1.0  #",
     "the maximizer and the weight t taken at the caller's scale, where they underflow "
     "at gamma = 2^-500"),
    ("src/tantheta/model.py", "if arr.ndim != 2:", "if False:",
     "a one-dimensional block accepted as a matrix"),
    ("src/tantheta/riccati.py", "if Y.shape[1] != dim0:", "if False:",
     "another block's partition extracted"),
    ("src/tantheta/model.py", "except np.linalg.LinAlgError as exc:",
     "except ZeroDivisionError as exc:", "an eigensolver failure escapes untyped"),
    ("src/tantheta/harness.py", "except NoConvergence:", "except ZeroDivisionError:",
     "a cross-check without convergence fails the trial"),
    ("src/tantheta/harness.py", 'fh.write(json.dumps(asdict(rec)) + "\\n")', "pass",
     "failure records left out of a JSONL report"),
    ("src/tantheta/harness.py", '"region": f"failed:{rec.error}"', '"region": rec.error',
     "a CSV failure row without its failed: prefix"),
    ("src/tantheta/harness.py", '    def __post_init__(self):\n        for name in ("dim0"',
     '    def _unused_checks(self):\n        for name in ("dim0"',
     "nothing checks a GenConfig when it is built"),
    ("src/tantheta/bounds.py", "return g, a_u, b_u, back, z0, g * (r1 + s) / den, r1",
     "return g, a_u, b_u, back, z0, g - z0, r1",
     "gamma - z0 by cancelling z0 against gamma, off by far more than 16 eps at D/d >= 1e8"),
    ("src/tantheta/bounds.py", "if not 0.0 <= z0 < g:", "if False:",
     "a maximizer z0 rounded onto gamma returned"),
    ("src/tantheta/harness.py", "while 0.0 < gate <= block.v_norm:", "while False:",
     "an edge-ratio draw keeps a ||B|| that reaches the partition gate"),
    ("src/tantheta/harness.py", "while 0.0 < gate <= block.v_norm:",
     "while gate <= block.v_norm:", "a gate that underflows to 0 rescaled until B is zero"),
    ("src/tantheta/bounds.py", "    except OverflowError:\n", "    except ZeroDivisionError:\n",
     "a coordinate that unit scaling lifts past the float range escapes untyped"),
    ("src/tantheta/bounds.py",
     "sin_arctan(2.0 * v_u / (d_u + math.sqrt(d_u * d_u + 4.0 * v_u * v_u)))",
     "sin_arctan(2.0 * v / (d + math.sqrt(d * d + 4.0 * v * v)))",
     "the inner distance taken at the caller's scale, where d^2 leaves the float range"),
    ("src/tantheta/bounds.py",
     'g, a_u, b1_u, b2_u = unit_scaled(gamma, a, b1, b2, names="gamma, a, b1, b2")',
     "g, a_u, b1_u, b2_u = gamma, a, b1, b2",
     "the kappas taken at the caller's scale, where (gamma - a)^2 leaves the float range"),
    ("src/tantheta/bounds.py",
     'g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")\n'
     "    back = 2.0 ** -unit_exponent(gamma)\n",
     "g, a_u, b_u = gamma, a, b\n    back = 1.0\n",
     "the circulant weights taken at the caller's scale, where gamma^2 b^2 underflows at 2^-500"),
    ("src/tantheta/spectral.py", 'with np.errstate(over="ignore"):', "with np.errstate():",
     "an edge distance past the float range warns of its overflow"),
    ("src/tantheta/bounds.py", "beta = a * ratio",
     "beta = (math.hypot(gb, a_u * math.sqrt(c)) - gb) / a_u * back",
     "beta by its cancelling numerator, which divides by a and loses a far below gamma"),
    ("src/tantheta/bounds.py", "unit_scaled(max(d, v), d, v,", "unit_scaled(d, d, v,",
     "the inner distance scaled by d alone, where v / d past the float range overflows"),
    ("src/tantheta/riccati.py", "spectral_norm(X @ (A0 + B @ X) - (B.T + A1 @ X))",
     "spectral_norm(X @ (A0 + B @ X) - A1 @ X)",
     "the Riccati residual's lower block drops B^T"),
    ("src/tantheta/riccati.py", "P[:, i:j], Q[:, i:j]", "P[:, i:j], P[:, i:j]",
     "the span check reads P's Gram matrix for Q's"),
    ("src/tantheta/riccati.py", "_pair_residuals(s_full[i],", "_pair_residuals(0.0,",
     "the span check takes the cluster's eigenvalue as 0"),
    ("src/tantheta/riccati.py", "return G / 2.0 + G.T / 2.0", "return G",
     "the span check leaves the Gram matrices unsymmetrized"),
    ("src/tantheta/model.py", "except (ValueError, RecursionError) as exc:",
     "except ValueError as exc:", "a JSON file nested past the recursion limit escapes untyped"),
    ("src/tantheta/bounds.py", "b_lo = math.sqrt(0.5 * (gamma - a)) * math.sqrt(a)",
     "b_lo = 0.5 * math.sqrt(2.0 * (g - a_u) * a_u) * back",
     "the circulant lower edge taken at unit scale, where a underflows and the edge reads 0"),
    ("src/tantheta/bounds.py", "if ratio == math.inf:", "if False:",
     "a circulant b that underflows at unit scale gives non-finite weights"),
    ("src/tantheta/bounds.py", "if not (b1 > 0.0 and b2 > 0.0):", "if False:",
     "a circulant weight that rounds to 0 returned, coupling nothing"),
    ("src/tantheta/cli.py", "except (TanThetaError, OSError) as exc:",
     "except (TanThetaError, OSError, ValueError) as exc:",
     "main maps an untyped ValueError to exit 2, hiding the defect"),
    ("src/tantheta/harness.py", "if (self.dim0 + self.dim1) ** 2 > np.iinfo(np.intp).max // 8:",
     "if False:",
     "dims past numpy's array size reach numpy, whose ValueError escapes untyped"),
    ("src/tantheta/spectral.py", "if Y.ndim != 2:", "if False:",
     "a one-dimensional partition basis escapes as an untyped IndexError"),
    ("src/tantheta/riccati.py", "if X.X.shape != (block.dim1, block.dim0):", "if False:",
     "another block's angular operator audited, escaping as numpy's ValueError"),
    ("src/tantheta/spectral.py", "if self.omega0.shape != (k,):", "if False:",
     "a partition with another number of eigenvalues than basis vectors"),
    ("src/tantheta/riccati.py", "if shapes != (self.X.shape, dim0, dim0 * 2):", "if False:",
     "an angular operator whose parts disagree with X's shape, escaping as numpy's ValueError"),
    ("src/tantheta/model.py", 'if arr.dtype.kind == "c":', "if False:",
     "complex entries truncated to their real parts with only numpy's warning"),
    ("src/tantheta/model.py", "    except (TypeError, ValueError) as exc:\n        raise DimensionMismatch",
     "    except ZeroDivisionError as exc:\n        raise DimensionMismatch",
     "non-numeric or ragged entries escape as numpy's ValueError"),
    ("src/tantheta/riccati.py", 'X = as_float_matrix(X, "X")', "X = np.asarray(X, dtype=float)",
     "riccati_residual truncates a complex X and lets a non-numeric one escape untyped"),
    ("src/tantheta/model.py", "if not 1 <= n == M.shape[1]:", "if False:",
     "an eigensystem of a matrix that is not square reported as an eigensolver failure"),
    ("src/tantheta/model.py", 'if arr.dtype.kind not in "fiu":', "if False:",
     "the dtype check narrowed back to complex only: numeric strings and booleans converted"),
    ("src/tantheta/model.py", "    M = as_float_matrix(M)\n", "    M = np.asarray(M, dtype=float)\n",
     "spectral_norm without the converter: a 1-dimensional M escapes as numpy's IndexError"),
    ("src/tantheta/model.py", '"_v_norm", spectral_norm(B))',
     '"_v_norm", float(np.abs(B).max(initial=0.0)))',
     "||B|| stored as the largest entry of B rather than its operator norm"),
)

DOC_TEST = "tests/test_readme.py::test_tolerance_table_lists_every_constant_of_the_table_with_its_value"
FAILED = re.compile(r"^FAILED (\S+)", re.M)


def copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info"))


def tier1(copy: Path, env: dict, *extra) -> tuple:
    """(exit code, first failing test or the end of the output) of tier-1
    in the copy."""
    done = subprocess.run(TIER1 + list(extra), cwd=copy, env=env, capture_output=True, text=True)
    failed = FAILED.search(done.stdout)
    return done.returncode, failed.group(1) if failed else done.stdout.strip()[-200:]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        copy_checkout(copy)
        # No bytecode: a mutant as long as its original, written within the
        # same second, could otherwise run from the original's cached .pyc.
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import tantheta; print(tantheta.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout.strip()
        if Path(where).resolve().parent != (copy / "src" / "tantheta").resolve():
            print(f"error: tantheta was imported from {where!r}, not the copy", file=sys.stderr)
            return 2
        code, detail = tier1(copy, env)
        if code != 0:
            print(f"error: tier-1 fails on the unmutated copy ({detail})", file=sys.stderr)
            return 2
        survivors = 0
        start = time.perf_counter()
        for file, old, new, reason in MUTANTS:
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"error: {old!r} occurs {text.count(old)} times in {file}", file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new))
            code, detail = tier1(copy, env, "--deselect", DOC_TEST)
            path.write_text(text)
            killed = code != 0
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':<8} {file}: {reason}"
                  + (f" [{detail}]" if killed else ""), flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
              f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
