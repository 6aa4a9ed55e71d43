"""Hand-worked cases for the independent checker and the generator.

Run with: python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import random
import unittest

import check
import gen


def case(blocks, p=0, conjugate=True, seed=1):
    if conjugate:
        u, u_inv = gen.conjugator(random.Random(seed), len(blocks))
    else:
        u = u_inv = gen.identity(2 * len(blocks))
    return gen.Case("hand", blocks, p, u, u_inv, 0)


def symplectic(m):
    d = len(m) // 2
    j = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        j[i][d + i], j[d + i][i] = 1, -1
    mt = [list(r) for r in zip(*m)]
    return gen.matmul(gen.matmul(mt, j), m) == j


class GeneratorTest(unittest.TestCase):
    def test_conjugator_is_symplectic_with_exact_inverse(self):
        for d in (1, 2, 3):
            u, u_inv = gen.conjugator(random.Random(d), d)
            self.assertTrue(symplectic(u))
            self.assertEqual(gen.matmul(u, u_inv), gen.identity(2 * d))

    def test_block_sum_interleaves_planes(self):
        self.assertEqual(gen.block_sum(["S2", "-I"]),
                         [[1, 0, 2, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])

    def test_same_seed_same_inputs_and_new_seed_new_inputs(self):
        first = [c.to_json() for c in gen.semistable_cases(4)]
        self.assertEqual(first, [c.to_json() for c in gen.semistable_cases(4)])
        self.assertNotEqual(first, [c.to_json() for c in gen.semistable_cases(5)])

    def test_nonsemistable_inputs_have_a_twisted_block_and_a_tame_prime(self):
        for c in gen.nonsemistable_cases(3):
            self.assertTrue(set(c.blocks) & set(gen.TWISTED))
            order = gen.semisimple_order(c.blocks)
            self.assertTrue(c.p == 0 or order % c.p)
            self.assertFalse(check.is_semistable(c.tau))


class CheckerTest(unittest.TestCase):
    def test_cokernels_of_the_primitives(self):
        # -I - I = -2I; R3 - I has det 3; R4 - I det 2; R6 - I det 1
        self.assertEqual(check.cokernel("I"), (2, []))
        self.assertEqual(check.cokernel("-I"), (0, [2, 2]))
        self.assertEqual(check.cokernel("R3"), (0, [1, 3]))
        self.assertEqual(check.cokernel("R4'"), (0, [1, 2]))
        self.assertEqual(check.cokernel("R6"), (0, [1, 1]))
        self.assertEqual(check.cokernel("S3"), (1, [3]))

    def test_fixed_counts(self):
        # -I fixes exactly the 2-torsion: 4 vectors mod 4, 1 mod 3
        self.assertEqual(check.fixed_count("-I", 4), 4)
        self.assertEqual(check.fixed_count("-I", 3), 1)
        # R3 - I has rank 1 mod 3
        self.assertEqual(check.fixed_count("R3", 3), 3)
        # S2 fixes (x, y) with 2y = 0: mod 4 that is y in {0, 2}
        self.assertEqual(check.fixed_count("S2", 4), 8)
        self.assertEqual(check.fixed_count("S2", 4, 2), 4)

    def test_elementary_divisors(self):
        self.assertEqual(check.elementary_divisors([2, 6]), [2, 2, 3])
        self.assertEqual(check.elementary_divisors([1, 12]), [3, 4])

    def test_exceptional_levels(self):
        self.assertEqual(check.exceptional_levels(1), {1, 2})
        self.assertEqual(check.exceptional_levels(4), {1, 2, 3, 4, 5, 8, 9, 16})

    def test_expected_invariants(self):
        exp = check.expected(case(["I", "R3", "-I"], p=5))
        self.assertFalse(exp["semistable"])
        self.assertTrue(exp["potentially_good"])
        self.assertEqual(exp["min_degree"], 6)
        self.assertEqual((exp["a"], exp["u"], exp["t"]), (1, 2, 0))
        self.assertEqual(exp["phi"], [2, 2, 3])
        self.assertEqual(exp["phi_prime"], [2, 2, 3])
        # I contributes 4^2, R3 contributes 1, -I contributes 4 at n = 4
        self.assertEqual(exp["torsion"]["4"][4], 16 * 1 * 4)
        # phi' drops the p-primary part
        self.assertEqual(check.expected(case(["R3", "-I"], p=3))["phi_prime"], [2, 2])
        shear = check.expected(case(["S1", "R4"]))
        self.assertFalse(shear["potentially_good"])
        self.assertEqual(shear["min_degree"], 4)

    def _report(self):
        # the identity at d = 1, p = 0, worked by hand
        return {
            "semistable": True, "potentially_good": True, "min_degree": 1,
            "a": 1, "u": 0, "t": 0, "phi": [], "phi_prime": [],
            "torsion": {"2": {"fixed_order": 4, "structure": [2, 2]},
                        "3": {"fixed_order": 9, "structure": [3, 3]},
                        "4": {"fixed_order": 16, "structure": [4, 4]}},
            "verdicts": [
                {"id": "level-structure", "hypothesis": True, "conclusion": True,
                 "agree": True, "citation": ""},
                {"id": "exceptional-degree", "hypothesis": True, "conclusion": True,
                 "agree": True, "citation": ""},
            ],
        }

    def test_hand_worked_report_passes(self):
        self.assertEqual(check.check_report(case(["I"], conjugate=False), self._report()), [])

    def test_wrong_values_are_caught(self):
        c = case(["I"], conjugate=False)
        for path, value in ((("semistable",), False), (("a",), 0), (("phi",), [2]),
                            (("torsion", "4", "fixed_order"), 8),
                            (("torsion", "4", "structure"), [2, 8]),
                            (("verdicts", 0, "agree"), False),
                            (("verdicts", 1, "hypothesis"), False)):
            report = json.loads(json.dumps(self._report()))
            target = report
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            self.assertTrue(check.check_report(c, report), path)

    def test_text_rendering(self):
        text = ("semistable:        True\npotentially good:  True\n"
                "minimal degree:    1\nranks:             a = 1, u = 0, t = 0\n"
                "fixed 2-torsion:   order 4 (Z/2 x Z/2)\n"
                "fixed 3-torsion:   order 9 (Z/3 x Z/3)\n"
                "fixed 4-torsion:   order 16 (Z/4 x Z/4)\nverdicts:\n"
                "  [ok ] level-structure: hypothesis=True conclusion=True\n"
                "  [ok ] exceptional-degree: hypothesis=True conclusion=True\n")
        c = case(["I"], conjugate=False)
        self.assertEqual(check.check_text(c, text), [])
        self.assertTrue(check.check_text(c, text.replace("order 9", "order 3")))
        self.assertTrue(check.check_text(c, text.replace("[ok ] level", "[DISAGREE] level")))

    def test_suite_and_table_checks(self):
        good = {"suite": "s", "passed": True, "violations": 0, "failures": [], "checked": 3}
        self.assertEqual(check.check_suite(good), [])
        self.assertTrue(check.check_suite(dict(good, violations=1, passed=False)))
        table = "N(1) = {1, 2}\nN(2) = {1, 2, 3, 4}\n"
        self.assertEqual(check.check_nk_table(table, 2), [])
        self.assertTrue(check.check_nk_table(table.replace("3, 4", "4"), 2))


if __name__ == "__main__":
    unittest.main()
