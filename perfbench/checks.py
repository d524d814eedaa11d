"""Correctness checks, made apart from the program.

The run data comes from sbicheck, which decodes the corpus with its own
reader. The Section 3 formulas (Failure, Context, Increase with its Wald
interval, Importance) are evaluated here, with this file's own code. No
check compares against a stored copy of earlier output: each states a
property the method or the workload must have.
"""

import math
import re

Z95 = 1.959963984540054  # Two-sided 95% standard-normal quantile.

HEADER_RE = re.compile(
    r"^(\d+) reports \((\d+) failing\); (\d+) predicates -> (\d+) survive "
    r"Increase>0 -> (\d+) selected$", re.M)
ROW_RE = re.compile(
    r"^\[[^\]]*\]\s+\[[^\]]*\]\s+(\d+\.\d+)\s+(\d+)\s+(\d+)\s+(.*)$")
SPILL_RE = re.compile(r"^spilled (\d+) reports \((\d+) failing, (\d+) "
                      r"successful\) into (\d+) shards", re.M)


class Checks:
    """Every check a run made, and the ones that failed."""

    def __init__(self):
        self.made = []

    def check(self, name, ok, detail=""):
        self.made.append((name, bool(ok), detail))
        return ok

    def failed(self):
        return [c for c in self.made if not c[1]]

    def report(self, out):
        for name, ok, detail in self.made:
            print(f"check {name}: {'ok' if ok else 'FAILED'}"
                  f"{' (' + detail + ')' if detail else ''}", file=out)
        print(f"checks: {len(self.made)} made, {len(self.failed())} failed",
              file=out)


def parse_analysis(text, num_bugs):
    """The header counts and the selected rows of an `sbi analyze` printout."""
    m = HEADER_RE.search(text)
    if not m:
        return None
    header = dict(zip(("reports", "failing", "predicates", "survivors",
                       "selected"), map(int, m.groups())))
    rows = []
    lines = text[m.end():].splitlines()
    # The selected list is the first table after the header: a header row,
    # a dashed rule, then one row per selection up to a blank line.
    start = next((i for i, line in enumerate(lines) if line.startswith("---")),
                 None)
    if start is None:
        return None
    for line in lines[start + 1:]:
        if not line.strip():
            break
        r = ROW_RE.match(line)
        if not r:
            return None
        rest = r.group(4).split()
        bugs = [int(x) for x in rest[len(rest) - num_bugs:]] if num_bugs else []
        label = r.group(4).rstrip()
        for _ in range(num_bugs):
            label = label[:label.rstrip().rfind(" ")].rstrip()
        rows.append({"imp": r.group(1), "F": int(r.group(2)),
                     "S": int(r.group(3)), "label": label, "bugs": bugs})
    header["rows"] = rows
    return header


def parse_spill(text):
    m = SPILL_RE.search(text)
    return None if not m else {"reports": int(m.group(1)),
                               "failing": int(m.group(2))}


def proportion(k, n):
    p = k / n if n else 0.0
    return p, (p * (1.0 - p) / n if n else 0.0)


def scores(pred, num_failing):
    """Increase, its Wald half-width and Importance (Section 3)."""
    failure, var_failure = proportion(pred["F"], pred["F"] + pred["S"])
    context, var_context = proportion(pred["FObs"],
                                      pred["FObs"] + pred["SObs"])
    increase = failure - context
    half_width = Z95 * math.sqrt(var_failure + var_context)
    sensitivity = (math.log(pred["F"]) / math.log(num_failing)
                   if num_failing > 1 and pred["F"] > 0 else 0.0)
    importance = (2.0 / (1.0 / increase + 1.0 / sensitivity)
                  if increase > 0 and sensitivity > 0 else 0.0)
    return increase, half_width, importance


def check_counts(c, tag, printed, tally, requested):
    c.check(f"{tag}.reports_match_request",
            printed["reports"] == requested and tally["runs"] == requested,
            f"requested {requested}, printed {printed['reports']}, "
            f"corpus {tally['runs']}")
    c.check(f"{tag}.failing_match_corpus",
            printed["failing"] == tally["failing"],
            f"printed {printed['failing']}, corpus {tally['failing']}")
    # The list is cut at the CLI's --top default; it must not be empty and
    # cannot list more than were selected.
    c.check(f"{tag}.selected_rows_printed",
            0 < len(printed["rows"]) <= printed["selected"],
            f"{len(printed['rows'])} rows, {printed['selected']} selected")


def check_failures_have_bugs(c, tag, tally):
    c.check(f"{tag}.every_failure_has_a_seeded_bug",
            tally["failing_no_bug"] == 0 and tally["failing"] > 0,
            f"{tally['failing_no_bug']} of {tally['failing']} failing runs "
            f"triggered no seeded bug")


def check_selected(c, tag, printed, tally, policy):
    """Recomputes each selected row's initial F, S, Importance and bug
    columns, and checks that the first selection has the highest
    Importance among the policy's initial candidates."""
    by_label = {}
    for pred in tally["predicates"]:
        by_label.setdefault(pred["label"], []).append(pred)
    num_failing = tally["failing"]
    bad, exact = [], []
    for row in printed["rows"]:
        match = [scores(p, num_failing)[2]
                 for p in by_label.get(row["label"], [])
                 if p["F"] == row["F"] and p["S"] == row["S"]
                 and f"{scores(p, num_failing)[2]:.3f}" == row["imp"]
                 and p["bug_failing"] == row["bugs"]]
        if not match:
            bad.append(row["label"])
        exact.append(max(match, default=-1.0))
    c.check(f"{tag}.selected_scores_recomputed", not bad and printed["rows"],
            f"{len(printed['rows']) - len(bad)}/{len(printed['rows'])} rows "
            f"match" + (f"; first mismatch: {bad[0]}" if bad else ""))

    # Discard-all ranks only predicates whose Increase interval lies above
    # zero; the other two policies start from every predicate with F > 0.
    best = 0.0
    for pred in tally["predicates"]:
        increase, half_width, importance = scores(pred, num_failing)
        if policy != "all" or increase - half_width > 0:
            best = max(best, importance)
    first = exact[0] if exact else -1.0
    c.check(f"{tag}.first_selection_has_highest_importance",
            first > 0 and first >= best - 1e-12,
            f"first {first:.6f}, highest recomputed {best:.6f}")


def check_majority_bugs(c, tag, printed, bug_ids):
    """Paper Table 6: each seeded bug is the majority bug of exactly one
    selected predicate."""
    majority = [bug_ids[max(range(len(bug_ids)), key=lambda b: row["bugs"][b])]
                for row in printed["rows"] if any(row["bugs"])]
    counts = {b: majority.count(b) for b in bug_ids}
    c.check(f"{tag}.each_bug_is_majority_of_one_selection",
            all(n == 1 for n in counts.values()),
            ", ".join(f"bug {b}: {n}" for b, n in counts.items()))


def check_sampling(c, tag, metrics, tally):
    """Realized against planned rate per scheme, within a 5-sigma binomial
    bound. The corpus gives the sampled observations; with the realized
    rate they give the number of reaches."""
    gauges = metrics.get("gauges", {})
    for scheme in ("branches", "returns", "scalar_pairs"):
        planned = gauges.get(f"campaign.sampling.{scheme}.planned_rate")
        realized = gauges.get(f"campaign.sampling.{scheme}.realized_rate")
        samples = tally["scheme_samples"][scheme]
        if planned is None or realized is None:
            c.check(f"{tag}.sampling_rate.{scheme}", False, "gauge missing")
            continue
        if samples == 0 or realized == 0:
            c.check(f"{tag}.sampling_rate.{scheme}", True, "never reached")
            continue
        reaches = samples / realized
        # Gauges print six decimals; allow for their rounding.
        bound = 5.0 * math.sqrt(planned * (1.0 - planned) / reaches) + 1e-6
        c.check(f"{tag}.sampling_rate.{scheme}",
                abs(realized - planned) <= bound,
                f"planned {planned:.6f}, realized {realized:.6f}, "
                f"bound {bound:.2e} over ~{reaches:.0f} reaches")
